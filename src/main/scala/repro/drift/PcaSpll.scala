package repro.drift

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._
import repro.core.{ScoreExpr, TupleScore}
import repro.linalg.{Eigen, Mat}
import repro.stats.{Moments, Standardizer}

/** PCA-SPLL baseline [Kuncheva & Faithfull, TNNLS 2014].
  *
  * Like the paper's method it keeps the *low*-variance principal components
  * (they are the most change-sensitive), but then models a multivariate
  * Gaussian over the retained subspace and uses the semi-parametric
  * log-likelihood (SPLL) — here with a single mixture component — as the
  * change statistic: the mean squared Mahalanobis distance of the new
  * window's tuples in the retained subspace.
  *
  * The two failure modes the paper reports are structural and reproduce
  * here: (1) no disjunctive modeling, so purely local drift in a stable
  * global mixture is invisible; (2) when the cumulative-variance rule
  * retains (nearly) no informative components, drift goes undetected.
  */
object PcaSpll {

  /** Fitted detector.
    *
    * @param numericCols numeric columns (model ordering)
    * @param z           standardization by the training means and stds
    * @param components  retained eigenvectors (rows), lowest variance first
    * @param variances   eigenvalue (variance) of each retained component,
    *                    floored for Mahalanobis stability
    */
  final case class Model(
      numericCols: Seq[String],
      z: Standardizer,
      components: Array[Array[Double]],
      variances: Array[Double],
  ) extends TupleScore {

    /** A raw tuple's squared Mahalanobis distance in the retained subspace,
      * `Σₖ pₖ² / varianceₖ` over its component scores pₖ: NaN for a NaN value.
      */
    def scoreAt(idx: Array[Int], x: Array[Double]): Double = {
      val zx = z(x)
      components.indices.foldLeft(0.0) { (s, k) => val p = Mat.dot(components(k), zx); s + p * p / variances(k) }
    }

    /** Each row's [[scoreAt]]: null on a row with a null, NaN or ±∞ attribute. */
    def statistic: Column = ScoreExpr.column(this)
  }

  /** Fit on a reference window's moments, on the driver.
    *
    * @param mom              moments of the reference window's attributes
    * @param varianceFraction retain components from the lowest variance up,
    *                         while their cumulative explained variance stays
    *                         below this fraction (paper's experiments: 25%)
    */
  def fit(mom: Moments, varianceFraction: Double = 0.25): Model = {
    val m = mom.cols.length
    // PCA of the standardized attributes: eigenvectors of the correlation matrix.
    val eig = Eigen.symmetric(mom.correlation)
    val total = eig.values.map(math.max(_, 0.0)).sum.max(1e-12)

    // Ascending order: accumulate the low-variance tail below the fraction.
    val cum = (0 until m).map(k => math.max(eig.values(k), 0.0) / total).scanLeft(0.0)(_ + _).tail
    val idx = (0 until m).takeWhile(k => cum(k) < varianceFraction || k == 0)
    Model(
      mom.cols,
      mom.standardizer,
      idx.map(eig.vector).toArray,
      idx.map(i => math.max(eig.values(i), 1e-6)).toArray,
    )
  }

  /** SPLL change statistic of `df` w.r.t. the reference model: the mean
    * [[Model.statistic]] over the rows with no null, NaN or ±∞ attribute.
    */
  def drift(df: DataFrame, model: Model): Double = {
    val row = df.agg(avg(model.statistic)).head()
    if (row.isNullAt(0)) 0.0 else row.getDouble(0)
  }
}
