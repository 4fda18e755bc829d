package org.apache.spark

/** Access to the listener bus, which Spark keeps package-private: the
  * tracer drains it before reading what its listeners collected, because
  * listener events are delivered asynchronously.
  */
object PerfbenchBus {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
