package repro.core

import repro.{JobCounts, SparkSpec}
import repro.stats.Moments

/** Spark jobs per fit, counted by a listener. Counts are deterministic, so
  * they are asserted exactly: on a cached frame, the moments scan, `fit` and
  * `autoFit` each run one job of one stage (no shuffle).
  */
class FitJobCountSpec extends SparkSpec with JobCounts {

  import spark.implicits._

  private lazy val cached = {
    val rnd = new scala.util.Random(5)
    val df = (1 to 400).map { i =>
      val x = rnd.nextDouble() * 10
      (s"g${i % 3}", s"id$i", x, 2 * x + rnd.nextGaussian() * 0.1)
    }.toDF("g", "id", "x", "y").repartition(4).cache()
    df.count()
    df
  }

  test("Moments.of runs one job with no shuffle stage") {
    val df = cached
    assert(jobsAndStages(Moments.of(df, Seq("x", "y"))) == (1, 1))
  }

  test("Disynth.fit with a partition attribute runs one job with no shuffle stage") {
    val df = cached
    var model: ConformanceModel = null
    assert(jobsAndStages { model = Disynth.fit(df, Seq("x", "y"), Seq("g")) } == (1, 1))
    assert(model.partitionAttrs == Seq("g"))
  }

  test("Disynth.autoFit with one categorical over maxDistinct runs one job with no shuffle stage") {
    val df = cached
    var model: ConformanceModel = null
    assert(jobsAndStages { model = Disynth.autoFit(df) } == (1, 1))
    assert(model.partitionAttrs == Seq("g"))
    assert(model.numericCols == Seq("x", "y"))
  }
}
