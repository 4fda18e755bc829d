package perfbench

import scala.collection.mutable
import org.apache.spark.PerfbenchBus
import org.apache.spark.scheduler._
import org.apache.spark.sql.{PerfbenchPlans, SparkSession}
import org.apache.spark.sql.execution.{SparkPlan, WholeStageCodegenExec}
import org.apache.spark.sql.execution.adaptive.AdaptiveSparkPlanHelper
import org.apache.spark.sql.execution.aggregate.BaseAggregateExec
import org.apache.spark.sql.execution.columnar.InMemoryTableScanExec
import org.apache.spark.sql.execution.ui.SparkListenerSQLExecutionEnd

/** Spark work attributed to one span, by counter name. `agg_exprs` is the
  * widest aggregate of any plan; every other counter is a sum.
  */
final class Counters {
  val values: mutable.LinkedHashMap[String, Double] =
    mutable.LinkedHashMap(Counters.Names.map(_ -> 0.0): _*)

  def add(name: String, x: Double): Unit = values(name) += x

  def +=(o: Counters): Unit = o.values.foreach { case (k, x) =>
    values(k) = if (k == "agg_exprs") math.max(values(k), x) else values(k) + x
  }
}

object Counters {
  val Names: Seq[String] = Seq(
    "jobs", "stages", "tasks", "executor_run_s", "executor_cpu_s", "deserialize_s", "gc_s",
    "result_bytes", "shuffle_write_bytes", "cached_scans", "codegen_stages", "agg_exprs")
}

/** One timed region of the benchmark's own code around a call into a layer. */
final class Span(val id: Int, val parent: Int, val name: String, val startNs: Long) {
  var endNs: Long = startNs
  val own = new Counters
  def durNs: Long = endNs - startNs
}

/** Times named regions and, once enabled, records them as spans with the
  * Spark work each one caused.
  *
  * Timing is always on: `take()` returns the nanoseconds spent per span name
  * since the previous call, which is how the untraced run measures its ops.
  * Recording spans and listening to Spark start with `record(true)`.
  *
  * Spark work is attributed through a local property holding the innermost
  * open span's id. Spark copies local properties into every job it submits,
  * so jobs, their stages and tasks, and the SQL execution that ran them map
  * to a span no matter when the asynchronous listener bus delivers them.
  * Plan counters are read from the final adaptive plan of each execution.
  */
final class Tracer(spark: SparkSession) {
  private val sc = spark.sparkContext
  private val SpanKey = "perfbench.span"

  val spans: mutable.ArrayBuffer[Span] = mutable.ArrayBuffer.empty
  private var open: List[Span] = Nil
  private var recording = false
  private val sums = mutable.HashMap.empty[String, Long]
  private var childMap = Map.empty[Int, Seq[Span]]

  // Written by listener threads, read after `finish()` has drained the bus.
  private val stageSpan = mutable.HashMap.empty[Int, Int]
  private val execSpan = mutable.HashMap.empty[Long, Int]
  private val jobCounters = mutable.HashMap.empty[Int, Counters]
  private val planCounters = mutable.HashMap.empty[Long, Counters]

  private var listening = false

  def enabled: Boolean = recording

  /** Start or stop recording spans. Timing by name goes on either way. */
  def record(on: Boolean): Unit = {
    if (on && !listening) { sc.addSparkListener(JobListener); listening = true }
    recording = on
  }

  def span[T](name: String)(body: => T): T = {
    val t0 = System.nanoTime
    val s = if (recording) {
      val s = new Span(spans.size, open.headOption.fold(-1)(_.id), name, t0)
      spans += s
      open = s :: open
      sc.setLocalProperty(SpanKey, s.id.toString)
      s
    } else null
    try body
    finally {
      val t1 = System.nanoTime
      sums(name) = sums.getOrElse(name, 0L) + (t1 - t0)
      if (s != null) {
        s.endNs = t1
        open = open.tail
        sc.setLocalProperty(SpanKey, open.headOption.map(_.id.toString).orNull)
      }
    }
  }

  /** Nanoseconds per span name since the previous call. */
  def take(): Map[String, Long] = { val r = sums.toMap; sums.clear(); r }

  /** Wait for the listener bus and attach the Spark work to the spans. */
  def finish(): Unit = if (listening) {
    PerfbenchBus.drain(sc)
    synchronized {
      jobCounters.foreach { case (id, c) => spans(id).own += c }
      planCounters.foreach { case (exec, c) => execSpan.get(exec).foreach(id => spans(id).own += c) }
      jobCounters.clear(); planCounters.clear()
    }
    childMap = spans.toSeq.groupBy(_.parent)
  }

  /** Child spans; valid after `finish()`. */
  def children(s: Span): Seq[Span] = childMap.getOrElse(s.id, Nil)

  /** The span's counters plus those of all its descendants. */
  def inclusive(s: Span): Counters = {
    val c = new Counters
    c += s.own
    children(s).foreach(ch => c += inclusive(ch))
    c
  }

  /** Duration not covered by child spans (children never overlap). */
  def selfNs(s: Span): Long = s.durNs - children(s).map(_.durNs).sum

  private def spanOf(props: java.util.Properties): Option[Int] =
    Option(props).flatMap(p => Option(p.getProperty(SpanKey))).map(_.toInt)

  private def counters(span: Int): Counters = jobCounters.getOrElseUpdate(span, new Counters)

  private object JobListener extends SparkListener {
    override def onJobStart(e: SparkListenerJobStart): Unit = Tracer.this.synchronized {
      spanOf(e.properties).foreach { id =>
        counters(id).add("jobs", 1)
        e.stageIds.foreach(stageSpan(_) = id)
        Option(e.properties.getProperty("spark.sql.execution.id")).foreach(x => execSpan(x.toLong) = id)
      }
    }

    override def onStageCompleted(e: SparkListenerStageCompleted): Unit = Tracer.this.synchronized {
      stageSpan.get(e.stageInfo.stageId).foreach(counters(_).add("stages", 1))
    }

    override def onTaskEnd(e: SparkListenerTaskEnd): Unit = Tracer.this.synchronized {
      stageSpan.get(e.stageId).foreach { id =>
        val c = counters(id)
        c.add("tasks", 1)
        val m = e.taskMetrics
        if (m != null) {
          c.add("executor_run_s", m.executorRunTime / 1e3)
          c.add("executor_cpu_s", m.executorCpuTime / 1e9)
          c.add("deserialize_s", m.executorDeserializeTime / 1e3)
          c.add("gc_s", m.jvmGCTime / 1e3)
          c.add("result_bytes", m.resultSize.toDouble)
          c.add("shuffle_write_bytes", m.shuffleWriteMetrics.bytesWritten.toDouble)
        }
      }
    }

    override def onOtherEvent(e: SparkListenerEvent): Unit = e match {
      case end: SparkListenerSQLExecutionEnd =>
        PerfbenchPlans.executed(end).foreach { qe =>
          val c = PlanStats(qe.executedPlan)
          Tracer.this.synchronized { planCounters(end.executionId) = c }
        }
      case _ =>
    }
  }
}

/** Counters read from an executed plan, descending through adaptive query
  * stages into the final plan (a plain tree walk stops at the adaptive root).
  */
object PlanStats extends AdaptiveSparkPlanHelper {
  def apply(plan: SparkPlan): Counters = {
    val nodes = collectWithSubqueries(plan) { case p => p }
    val c = new Counters
    c.add("codegen_stages", nodes.count(_.isInstanceOf[WholeStageCodegenExec]).toDouble)
    c.add("cached_scans", nodes.count(_.isInstanceOf[InMemoryTableScanExec]).toDouble)
    c.add("agg_exprs", nodes.collect { case a: BaseAggregateExec => a.aggregateExpressions.size }
      .maxOption.getOrElse(0).toDouble)
    c
  }
}
