package repro

import java.util.concurrent.atomic.AtomicInteger
import org.apache.spark.ListenerBusAccess
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerStageSubmitted}

/** Spark jobs and stages an API call runs, counted by a listener. Counts are
  * deterministic, so tests assert them exactly.
  */
trait JobCounts { this: SparkSpec =>

  /** Jobs and stages `body` runs; stages skipped because their output is
    * cached are not run, so a second stage means a shuffle.
    */
  def jobsAndStages(body: => Unit): (Int, Int) = {
    val sc = spark.sparkContext
    val jobs = new AtomicInteger
    val stages = new AtomicInteger
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit = jobs.incrementAndGet()
      override def onStageSubmitted(e: SparkListenerStageSubmitted): Unit = stages.incrementAndGet()
    }
    ListenerBusAccess.drain(sc)
    sc.addSparkListener(listener)
    try {
      body
      ListenerBusAccess.drain(sc)
    } finally sc.removeSparkListener(listener)
    (jobs.get, stages.get)
  }
}
