package repro.ml

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.core.{ScoreExpr, TupleScore}
import repro.linalg.{Mat, Solve}
import repro.stats.Moments

/** Closed-form ordinary least squares on Spark.
  *
  * The normal equations `(X̃ᵀX̃) β = X̃ᵀy` (X̃ = 1-augmented features) are
  * assembled from one [[Moments]] pass over `features :+ target` — the same
  * single-scan Gram computation the invariant synthesizer uses — and solved
  * on the driver. A small ridge keeps deliberately collinear designs (the
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
    // Augmented Gram of [1, features, target]: the normal equations are its
    // leading (m+1)×(m+1) block and rows 0..m of its last column.
    val g = Moments.of(df, features :+ target).augmentedGram
    val m = features.length
    val a = Mat.zeros(m + 1, m + 1)
    for (i <- 0 to m; j <- 0 to m) a(i, j) = g(i, j)
    val b = Array.tabulate(m + 1)(i => g(i, m + 1))

    val diagScale = (0 to m).map(i => a(i, i)).sum / (m + 1)
    val beta = Solve.solve(a, b, ridge * math.max(diagScale, 1.0))
    Model(features, beta(0), beta.drop(1))
  }
}
