package repro.drift

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._
import repro.core.{ScoreExpr, TupleScore}
import repro.linalg.{Eigen, Mat}
import repro.stats.{Moments, Standardizer}

/** CD baseline [Qahtan et al., KDD 2015]: PCA-based change detection.
  *
  * Opposite philosophy to the paper under reproduction: project onto the
  * *top* (high-variance) principal components, estimate a univariate
  * density per component with equal-width histograms, and report the
  * maximum per-component divergence between reference and test windows:
  *
  *  - CD-MKL:  max over components of max(KL(p‖q), KL(q‖p))
  *  - CD-Area: max over components of (1 − intersection area of densities)
  *
  * High-variance components carry the data's noise, so both variants are
  * noise-sensitive, and both saturate once the windows stop overlapping —
  * the "detects drift but cannot quantify it" behaviour in Fig. 8.
  */
object ChangeDetection {

  /** Divergence flavour. */
  sealed trait Metric
  case object MKL extends Metric
  case object Area extends Metric

  /** Fitted detector.
    *
    * @param z          standardization by the training means and stds
    * @param components retained top eigenvectors (rows), highest variance first
    * @param lo/hi      per-component histogram range (reference window,
    *                   widened so moderate drift stays on-range)
    * @param refHist    per-component reference densities (sums to 1)
    */
  final case class Model(
      cols: Seq[String],
      z: Standardizer,
      components: Array[Array[Double]],
      lo: Array[Double],
      hi: Array[Double],
      refHist: Array[Array[Double]],
      bins: Int,
  ) {

    /** `df` with each row's component scores appended. */
    def withScores(df: DataFrame): DataFrame = scores(df, cols, z, components)

    /** Bin counts over the scores [[withScores]] appends, as aggregate
      * columns, component-major; a row with a null, NaN or ±∞ attribute is
      * in none.
      */
    def binCounts: Seq[Column] = ChangeDetection.binCounts(lo, hi, bins)

    /** The largest per-component divergence under `metric` from the reference
      * window of a window with bin counts `counts`.
      */
    def divergence(counts: Array[Double], metric: Metric): Double = {
      val per = refHist.zip(histograms(counts, bins)).map { case (p, q) =>
        metric match {
          case MKL  => math.max(kl(p, q), kl(q, p))
          case Area => 1.0 - p.zip(q).map { case (a, b) => math.min(a, b) }.sum
        }
      }
      if (per.isEmpty) 0.0 else per.max
    }
  }

  /** Retain top components until their cumulative explained variance
    * reaches this fraction (CD keeps the high-variance subspace).
    */
  private val VarianceFraction = 0.99

  /** Histogram resolution per component. */
  private val Bins = 30

  /** Fit on the reference window `df` and the moments of its attributes. */
  def fit(df: DataFrame, mom: Moments): Model = {
    require(mom.n > 0, "ChangeDetection.fit: empty reference window")
    val numericCols = mom.cols
    val m = numericCols.length
    val z = mom.standardizer
    val eig = Eigen.symmetric(mom.correlation)
    val total = eig.values.map(math.max(_, 0.0)).sum.max(1e-12)
    // Descending order: take from the top until the fraction is covered.
    val desc = (m - 1) to 0 by -1
    val before = desc.map(k => math.max(eig.values(k), 0.0) / total).scanLeft(0.0)(_ + _)
    val idx = desc.zip(before).takeWhile(_._2 < VarianceFraction).map(_._1)
    val comps = idx.map(eig.vector).toArray

    // Component score range on the reference window, widened by 50% per side
    // so moderately drifted data still lands in the histogram.
    val scored = scores(df, numericCols, z, comps)
    val k = comps.length
    val bounds = (0 until k).map(i => min(score(i))) ++ (0 until k).map(i => max(score(i)))
    val range = scored.agg(bounds.head, bounds.tail: _*).head()
    val lo = new Array[Double](k)
    val hi = new Array[Double](k)
    for (i <- comps.indices) {
      val a = range.getDouble(i); val b = range.getDouble(k + i)
      val w = math.max(b - a, 1e-9)
      lo(i) = a - 0.5 * w; hi(i) = b + 0.5 * w
    }
    val refHist = histograms(aggregate(scored, binCounts(lo, hi, Bins)).get, Bins)
    Model(numericCols, z, comps, lo, hi, refHist, Bins)
  }

  /** Divergence of `df` from the reference window under `metric`; 0 for an empty `df`. */
  def drift(df: DataFrame, model: Model, metric: Metric): Double =
    aggregate(model.withScores(df), model.binCounts).fold(0.0)(model.divergence(_, metric))

  /** The aggregates of `df`, or None when `df` has no rows (every sum is null). */
  private def aggregate(df: DataFrame, aggs: Seq[Column]): Option[Array[Double]] = {
    val row = df.agg(aggs.head, aggs.tail: _*).head()
    if (row.isNullAt(0)) None else Some(Array.tabulate(aggs.length)(row.getDouble))
  }

  private def score(k: Int): Column = col(s"__cd$k")

  /** A raw tuple's score on component `w`: the dot product of `w` and its z-scores. */
  private final case class Projection(numericCols: Seq[String], z: Standardizer, w: Array[Double]) extends TupleScore {
    def scoreAt(idx: Array[Int], x: Array[Double]): Double = Mat.dot(w, z(x))
  }

  /** `df` with each row's [[Projection]] on component k appended as
    * [[score]](k): a projection of its own, so below an aggregate a row
    * computes each score once, not once per bin.
    */
  private def scores(df: DataFrame, cols: Seq[String], z: Standardizer, comps: Array[Array[Double]]): DataFrame =
    df.select(col("*") +: comps.toSeq.zipWithIndex.map { case (w, k) =>
      ScoreExpr.column(Projection(cols, z, w)).as(s"__cd$k")
    }: _*)

  /** Equal-width bin counts of each component score as sums of indicators,
    * component-major; the last bin is closed above.
    */
  private def binCounts(lo: Array[Double], hi: Array[Double], bins: Int): Seq[Column] =
    lo.indices.flatMap { k =>
      val width = (hi(k) - lo(k)) / bins
      (0 until bins).map { b =>
        val a = lo(k) + b * width
        val z = if (b == bins - 1) hi(k) + 1e-12 else lo(k) + (b + 1) * width
        sum(when(score(k) >= a && score(k) < z, 1.0).otherwise(0.0))
      }
    }

  /** Component-major bin counts → per-component normalized densities. */
  private def histograms(counts: Array[Double], bins: Int): Array[Array[Double]] =
    counts.grouped(bins).map { c =>
      val total = math.max(c.sum, 1.0)
      c.map(_ / total)
    }.toArray

  /** KL(p‖q) with ε-smoothing against empty bins. */
  private def kl(p: Array[Double], q: Array[Double]): Double = {
    val eps = 1e-6
    p.indices.map { i =>
      val pi = p(i) + eps; val qi = q(i) + eps
      pi * math.log(pi / qi)
    }.sum
  }
}
