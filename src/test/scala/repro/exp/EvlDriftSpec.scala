package repro.exp

import scala.collection.mutable
import org.apache.spark.ListenerBusAccess
import org.apache.spark.sql.execution.{QueryExecution, SparkPlan, UnionExec}
import org.apache.spark.sql.execution.adaptive.AdaptiveSparkPlanHelper
import org.apache.spark.sql.util.QueryExecutionListener
import repro.{JobCounts, SparkSpec}

/** Small-scale integration run of the Figure 8 experiment on three
  * representative streams: one global translation (1CDT), one pure local
  * rotation (4CR), one label-rotation (FG-2C-2D).
  */
class EvlDriftSpec extends SparkSpec with JobCounts with AdaptiveSparkPlanHelper {

  private lazy val results = EvlDrift.run(spark,
    datasets = Seq("1CDT", "4CR", "FG-2C-2D"), nWindows = 8, pointsPerClass = 200)
  private lazy val byName = results.map(r => r.dataset -> r).toMap

  test("all four methods produce a curve per dataset") {
    results.foreach { r =>
      assert(r.curves.keySet == EvlDrift.Methods.toSet)
      r.curves.values.foreach(c => assert(c.length == 8))
    }
  }

  test("curves are min-max normalized into [0,1]") {
    results.foreach { r =>
      r.curves.values.foreach { c =>
        assert(c.forall(v => v >= 0.0 && v <= 1.0))
      }
    }
  }

  test("global translation (1CDT): DISYNTH and PCA-SPLL both track the ground truth") {
    val r = byName("1CDT")
    assert(r.corr("DISYNTH") > 0.85, s"DISYNTH corr ${r.corr("DISYNTH")}")
    assert(r.corr("PCA-SPLL") > 0.85, s"PCA-SPLL corr ${r.corr("PCA-SPLL")}")
  }

  test("local rotation (4CR): DISYNTH tracks it, PCA-SPLL and CD do not") {
    val r = byName("4CR")
    assert(r.corr("DISYNTH") > 0.8, s"DISYNTH corr ${r.corr("DISYNTH")}")
    assert(r.corr("PCA-SPLL") < 0.5, s"PCA-SPLL corr ${r.corr("PCA-SPLL")}")
    assert(r.corr("CD-Area") < 0.5, s"CD-Area corr ${r.corr("CD-Area")}")
  }

  test("label rotation (FG-2C-2D): only the class-aware model sees the drift") {
    val r = byName("FG-2C-2D")
    assert(r.corr("DISYNTH") > 0.7, s"DISYNTH corr ${r.corr("DISYNTH")}")
    assert(r.corr("PCA-SPLL") < 0.5, s"PCA-SPLL corr ${r.corr("PCA-SPLL")}")
  }

  test("DISYNTH quantifies at least as well as every baseline on every stream") {
    results.foreach { r =>
      EvlDrift.Methods.filterNot(_ == "DISYNTH").foreach { m =>
        assert(r.corr("DISYNTH") >= r.corr(m) - 0.1,
          s"${r.dataset}: DISYNTH ${r.corr("DISYNTH")} vs $m ${r.corr(m)}")
      }
    }
  }

  test("window 1 scores zero drift for DISYNTH (model's own window)") {
    results.foreach { r =>
      assert(r.curves("DISYNTH").head < 0.1, s"${r.dataset}: ${r.curves("DISYNTH").head}")
    }
  }

  test("one stream costs its fits plus one grouped score job") {
    var rerun: Seq[EvlDrift.DatasetResult] = Nil
    val counts = jobsAndStages {
      rerun = EvlDrift.run(spark, datasets = Seq("1CDT"), nWindows = 8, pointsPerClass = 200)
    }
    // DISYNTH, PCA-SPLL and CD share one moments scan; CD's score range and
    // reference histogram take one aggregate each; all windows score in one
    // grouped aggregate. Each is one job of one stage.
    assert(counts == (4, 4))
    assert(rerun.head == byName("1CDT"))
  }

  test("every plan a stream runs has one leaf and no Union") {
    val plans = mutable.Buffer.empty[SparkPlan]
    val listener = new QueryExecutionListener {
      override def onSuccess(funcName: String, qe: QueryExecution, durationNs: Long): Unit =
        plans.synchronized(plans += qe.executedPlan)
      override def onFailure(funcName: String, qe: QueryExecution, exception: Exception): Unit = ()
    }
    ListenerBusAccess.drain(spark.sparkContext)
    spark.listenerManager.register(listener)
    try {
      EvlDrift.run(spark, datasets = Seq("1CDT"), nWindows = 8, pointsPerClass = 200)
      ListenerBusAccess.drain(spark.sparkContext)
    } finally spark.listenerManager.unregister(listener)
    // The moments scan, CD's two aggregates and the grouped score.
    assert(plans.length == 4)
    plans.foreach { p =>
      assert(collectLeaves(p).map(_.nodeName) == Seq("Range"), p)
      assert(collect(p) { case u: UnionExec => u }.isEmpty, p)
    }
  }
}
