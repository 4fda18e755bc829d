package repro.ml

import dev.ludovic.netlib.lapack.JavaLAPACK
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import org.netlib.util.intW
import repro.core.{ScoreExpr, TupleScore}
import repro.linalg.Mat
import repro.stats.Moments

/** Closed-form ordinary least squares on Spark.
  *
  * The normal equations `(X̃ᵀX̃) β = X̃ᵀy` (X̃ = 1-augmented features) are
  * assembled from one [[Moments]] pass over `features :+ target` — the same
  * single-scan Gram computation the invariant synthesizer uses — and solved
  * on the driver by LAPACK's Cholesky (`dposv`, the pure-Java build in
  * Spark's jars, so no result depends on a native library loading). A small
  * ridge keeps deliberately collinear designs (the
  * airlines experiment trains on `arr−dep ≡ duration` data) solvable; ridge
  * → the minimum-norm-flavoured solution, which is exactly the implicit
  * reliance on the data invariant that the paper's TML case study exposes.
  */
object LinearRegression {

  /** A fitted model: ŷ = intercept + Σ weights(i)·x(i). */
  final case class Model(features: Seq[String], intercept: Double, weights: Array[Double]) extends TupleScore {

    def numericCols: Seq[String] = features
    def predict(x: Array[Double]): Double = intercept + Mat.dot(weights, x)
    def scoreAt(idx: Array[Int], x: Array[Double]): Double = predict(x)

    /** Append column `outCol` with each row's [[predict]]; a row with a
      * null, NaN or ±∞ feature gets a null prediction.
      */
    def transform(df: DataFrame, outCol: String = "prediction"): DataFrame =
      df.withColumn(outCol, ScoreExpr.column(this))

    /** Mean absolute error of the predictions against `target` on `df`; NaN if none. */
    def mae(df: DataFrame, target: String): Double = {
      val row = transform(df, "__p").agg(avg(abs(col("__p") - col(target).cast("double")))).head()
      if (row.isNullAt(0)) Double.NaN else row.getDouble(0)
    }
  }

  /** Fit by normal equations.
    *
    * @param ridge λ added to the (feature-block) diagonal; relative to the
    *              mean diagonal magnitude so it is scale-free. Kept tiny:
    *              it exists to make exactly-singular systems solvable, and
    *              any larger value visibly biases coefficients on features
    *              with large numeric scale (e.g. hour columns standing in
    *              for minutes)
    */
  def fit(df: DataFrame, features: Seq[String], target: String, ridge: Double = 1e-10): Model = {
    require(features.nonEmpty, "LinearRegression.fit: no features")
    require(!features.contains(target), "LinearRegression.fit: target among features")
    val mom = Moments.of(df, features :+ target)
    require(mom.n > 0, "LinearRegression.fit: no training row with every value finite")
    // Augmented Gram of [1, features, target], (m+2)×(m+2): the normal
    // equations are its leading (m+1)×(m+1) block and rows 0..m of its last
    // column. The block is symmetric, so LAPACK reads it in place from the
    // row-major array as a column-major one with leading dimension m+2.
    val m = features.length
    val lda = m + 2
    val g = mom.augmentedGram.data
    val b = Array.tabulate(m + 1)(i => g(i * lda + m + 1))
    val diagScale = (0 to m).map(i => g(i * lda + i)).sum / (m + 1)
    val lambda = ridge * math.max(diagScale, 1.0)
    for (i <- 0 to m) g(i * lda + i) += lambda
    val info = new intW(0)
    JavaLAPACK.getInstance.dposv("U", m + 1, 1, g, lda, b, m + 1, info)
    require(info.`val` == 0,
      s"LinearRegression.fit: normal equations not positive definite (dposv info ${info.`val`}); add ridge")
    Model(features, b(0), b.drop(1))
  }
}
