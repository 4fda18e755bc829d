package repro.ml

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.stats.{Moments, Standardizer}

/** Multiclass (softmax) logistic regression — the classifier substrate the
  * HAR experiments need (person identification, Fig. 5(a)).
  *
  * Features are standardized with training statistics from a [[Moments]]
  * pass; training itself runs as full-batch gradient descent on the driver
  * over the collected (standardized) design matrix. Model *training* is not
  * the paper's contribution — the authors used an in-process sklearn model —
  * so the distributed parts are where they matter for the reproduction:
  * feature statistics and scoring scale with the data, the optimizer state
  * (K×(m+1) weights) does not.
  */
object LogisticRegression {

  /** Fitted softmax model over standardized features.
    *
    * @param features feature column names (model ordering)
    * @param labels   class labels; row k of `weights` scores `labels(k)`
    * @param z        standardization by the training means and stds
    * @param weights  K×(m+1) parameter matrix, column 0 = bias
    */
  final case class Model(
      features: Seq[String],
      labels: Seq[String],
      z: Standardizer,
      weights: Array[Array[Double]],
  ) extends Serializable {

    /** Predicted label for a raw (unstandardized) feature vector. */
    def predict(x: Array[Double]): String = {
      val zx = z(x)
      var best = 0; var bestScore = Double.NegativeInfinity
      var k = 0
      while (k < labels.length) {
        var s = weights(k)(0); var i = 0
        while (i < zx.length) { s += weights(k)(i + 1) * zx(i); i += 1 }
        if (s > bestScore) { bestScore = s; best = k }
        k += 1
      }
      labels(best)
    }

    /** Append `outCol` with the predicted label. */
    def transform(df: DataFrame, outCol: String = "predicted"): DataFrame = {
      val self = this
      val arr = array(features.map(c => col(c).cast("double")): _*)
      val f = udf((xs: Seq[Double]) => self.predict(xs.toArray))
      df.withColumn(outCol, f(arr))
    }

    /** Fraction of rows of `df` whose prediction matches `labelCol`. */
    def accuracy(df: DataFrame, labelCol: String): Double =
      transform(df, "__pred")
        .agg(avg(when(col("__pred") === col(labelCol).cast("string"), 1.0).otherwise(0.0)))
        .head().getDouble(0)
  }

  /** Train with full-batch gradient descent.
    *
    * @param iters    gradient steps (full batch each)
    * @param lr       learning rate on the mean gradient
    * @param l2       L2 regularization on non-bias weights
    */
  def fit(
      df: DataFrame,
      features: Seq[String],
      labelCol: String,
      iters: Int = 150,
      lr: Double = 0.5,
      l2: Double = 1e-4,
  ): Model = {
    require(features.nonEmpty, "LogisticRegression.fit: no features")
    val z = Moments.of(df, features).standardizer

    val arr = array(features.map(c => col(c).cast("double")): _*)
    val rows = df
      .select(col(labelCol).cast("string").as("__y"), arr.as("__x"))
      .na.drop()
      .collect()
      .map(r => (r.getString(0), r.getSeq[Double](1).toArray))
    require(rows.nonEmpty, "LogisticRegression.fit: empty training data")

    val labels = rows.map(_._1).distinct.sorted.toSeq
    val labelIdx = labels.zipWithIndex.toMap
    val m = features.length
    val x = rows.map { case (_, raw) => z(raw) }
    val y = rows.map(r => labelIdx(r._1))
    val nK = labels.length
    val n = rows.length

    val w = Array.fill(nK)(new Array[Double](m + 1))
    val grad = Array.fill(nK)(new Array[Double](m + 1))
    val scores = new Array[Double](nK)
    var it = 0
    while (it < iters) {
      var k = 0
      while (k < nK) { java.util.Arrays.fill(grad(k), 0.0); k += 1 }
      var r = 0
      while (r < n) {
        val xi = x(r)
        var maxS = Double.NegativeInfinity
        k = 0
        while (k < nK) {
          var s = w(k)(0); var i = 0
          while (i < m) { s += w(k)(i + 1) * xi(i); i += 1 }
          scores(k) = s; if (s > maxS) maxS = s
          k += 1
        }
        var z = 0.0
        k = 0
        while (k < nK) { scores(k) = math.exp(scores(k) - maxS); z += scores(k); k += 1 }
        k = 0
        while (k < nK) {
          val p = scores(k) / z
          val err = p - (if (y(r) == k) 1.0 else 0.0)
          grad(k)(0) += err
          var i = 0
          while (i < m) { grad(k)(i + 1) += err * xi(i); i += 1 }
          k += 1
        }
        r += 1
      }
      k = 0
      while (k < nK) {
        var i = 0
        while (i <= m) {
          val reg = if (i == 0) 0.0 else l2 * w(k)(i)
          w(k)(i) -= lr * (grad(k)(i) / n + reg)
          i += 1
        }
        k += 1
      }
      it += 1
    }
    Model(features, labels, z, w)
  }
}
