package repro.drift

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
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
  ) extends Serializable

  /** Fit on the reference window.
    *
    * @param varianceFraction retain top components until cumulative explained
    *                         variance reaches this fraction (CD keeps the
    *                         high-variance subspace)
    * @param bins             histogram resolution per component
    */
  def fit(
      df: DataFrame,
      numericCols: Seq[String],
      varianceFraction: Double = 0.99,
      bins: Int = 30,
  ): Model = {
    val mom = Moments.of(df, numericCols)
    val m = numericCols.length
    val z = mom.standardizer
    val eig = Eigen.symmetric(mom.correlation)
    val total = eig.values.map(math.max(_, 0.0)).sum.max(1e-12)
    // Descending order: take from the top until the fraction is covered.
    val desc = (m - 1) to 0 by -1
    val kept = Seq.newBuilder[Int]
    var cum = 0.0
    for (k <- desc if cum < varianceFraction) { kept += k; cum += math.max(eig.values(k), 0.0) / total }
    val idx = kept.result()
    val comps = idx.map(eig.vector).toArray

    // Component score range on the reference window, widened by 50% per side
    // so moderately drifted data still lands in the histogram.
    val projCols = comps.zipWithIndex.map { case (_, i) => s"__p$i" }
    val projected = project(df, numericCols, z, comps)
    val k = comps.length
    val bounds = projCols.map(c => min(col(c))) ++ projCols.map(c => max(col(c)))
    val range = projected.agg(bounds.head, bounds.tail: _*).head()
    val lo = new Array[Double](k)
    val hi = new Array[Double](k)
    for (i <- comps.indices) {
      val a = range.getDouble(i); val b = range.getDouble(k + i)
      val w = math.max(b - a, 1e-9)
      lo(i) = a - 0.5 * w; hi(i) = b + 0.5 * w
    }
    val refHist = histograms(projected, projCols, lo, hi, bins)
    Model(numericCols, z, comps, lo, hi, refHist, bins)
  }

  /** Divergence of `df` from the reference window under `metric`. */
  def drift(df: DataFrame, model: Model, metric: Metric): Double = {
    val projCols = model.components.indices.map(i => s"__p$i")
    val projected = project(df, model.cols, model.z, model.components)
    val hist = histograms(projected, projCols, model.lo, model.hi, model.bins)
    val per = model.components.indices.map { k =>
      metric match {
        case MKL  => math.max(kl(model.refHist(k), hist(k)), kl(hist(k), model.refHist(k)))
        case Area => 1.0 - model.refHist(k).zip(hist(k)).map { case (p, q) => math.min(p, q) }.sum
      }
    }
    if (per.isEmpty) 0.0 else per.max
  }

  private def project(
      df: DataFrame,
      cols: Seq[String],
      z: Standardizer,
      comps: Array[Array[Double]],
  ): DataFrame = {
    val arr = array(cols.map(c => col(c).cast("double")): _*)
    val f = udf { (xs: Seq[Double]) =>
      val zx = z(xs.toArray)
      comps.map(cvec => Mat.dot(cvec, zx)).toSeq
    }
    val projected = df.na.drop(cols).withColumn("__proj", f(arr))
    comps.indices.foldLeft(projected) { (d, i) =>
      d.withColumn(s"__p$i", col("__proj").getItem(i))
    }
  }

  /** Per-component normalized histograms in one grouped pass per component. */
  private def histograms(
      df: DataFrame,
      projCols: Seq[String],
      lo: Array[Double],
      hi: Array[Double],
      bins: Int,
  ): Array[Array[Double]] = {
    // One aggregation computing all bin counts: sum of indicator expressions.
    val exprs = projCols.zipWithIndex.flatMap { case (c, k) =>
      val width = (hi(k) - lo(k)) / bins
      (0 until bins).map { b =>
        val a = lo(k) + b * width
        val z = if (b == bins - 1) hi(k) + 1e-12 else lo(k) + (b + 1) * width
        sum(when(col(c) >= a && col(c) < z, 1.0).otherwise(0.0))
      }
    }
    val row = df.agg(exprs.head, exprs.tail: _*).head()
    projCols.indices.map { k =>
      val counts = Array.tabulate(bins)(b => row.getDouble(k * bins + b))
      val total = math.max(counts.sum, 1.0)
      counts.map(_ / total)
    }.toArray
  }

  /** KL(p‖q) with ε-smoothing against empty bins. */
  private def kl(p: Array[Double], q: Array[Double]): Double = {
    val eps = 1e-6
    p.indices.map { i =>
      val pi = p(i) + eps; val qi = q(i) + eps
      pi * math.log(pi / qi)
    }.sum
  }
}
