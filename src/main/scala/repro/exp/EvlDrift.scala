package repro.exp

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions.avg
import repro.core.{Disynth, ScoreExpr}
import repro.data.Evl
import repro.drift.{ChangeDetection, PcaSpll}
import repro.stats.{Moments, Stats}

/** Fig. 8: drift quantification on the EVL benchmark — DISYNTH vs PCA-SPLL,
  * CD-MKL, and CD-Area, scored against the analytic ground-truth drift.
  */
object EvlDrift {

  val Methods: Seq[String] = Seq("DISYNTH", "PCA-SPLL", "CD-MKL", "CD-Area")

  /** Per-dataset drift curves (min-max normalized, as in the paper's plots)
    * and each method's Pearson correlation with the ground truth.
    */
  final case class DatasetResult(
      dataset: String,
      groundTruth: Seq[Double],
      curves: Map[String, Seq[Double]],
      corr: Map[String, Double],
  )

  /** Fits every method on one moments scan of each stream's window 1, then
    * scores all windows in one job grouped by window; CD's metrics share it.
    */
  def run(
      spark: SparkSession,
      datasets: Seq[String] = Evl.Datasets,
      nWindows: Int = 10,
      pointsPerClass: Int = 300,
      seed: Long = 23,
  ): Seq[DatasetResult] = datasets.map { name =>
    val w1 = Evl.window(spark, name, 1, nWindows, pointsPerClass, seed)
    val scan = Moments.scan(w1, Seq("x", "y"), Seq("cls"), Disynth.Config().maxDistinct)
    val dis = Disynth.synthesize(scan)
    val spll = PcaSpll.fit(scan.global)
    val cd = ChangeDetection.fit(w1, scan.global)

    val windows = Evl.windows(spark, name, 1 to nWindows, nWindows, pointsPerClass, seed + 7777)
    val cdBins = cd.binCounts
    val rows = cd.withScores(windows).groupBy("window")
      .agg(avg(ScoreExpr.column(dis)), avg(spll.statistic) +: cdBins: _*)
      .collect().sortBy(_.getInt(0)).toSeq
    val counts = rows.map(r => Array.tabulate(cdBins.length)(b => r.getDouble(3 + b)))
    val raw = Map(
      "DISYNTH" -> rows.map(_.getDouble(1)),
      "PCA-SPLL" -> rows.map(_.getDouble(2)),
      "CD-MKL" -> counts.map(cd.divergence(_, ChangeDetection.MKL)),
      "CD-Area" -> counts.map(cd.divergence(_, ChangeDetection.Area)),
    )

    val gtRaw = (1 to nWindows).map(w => Evl.groundTruth(name, w, nWindows))
    val curves = raw.map { case (m, v) => m -> Stats.minMaxNormalize(v) }
    val corr = curves.map { case (m, c) => m -> Stats.pearson(gtRaw, c) }
    DatasetResult(name, Stats.minMaxNormalize(gtRaw), curves, corr)
  }
}
