package org.apache.spark

/** Access to the listener bus, which Spark keeps package-private: tests that
  * count jobs through a listener drain it first, because listener events are
  * delivered asynchronously.
  */
object ListenerBusAccess {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
