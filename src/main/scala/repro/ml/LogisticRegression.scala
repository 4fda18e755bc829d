package repro.ml

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._
import repro.core.{ScoreExpr, TupleScore}
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
  ) extends TupleScore {

    def numericCols: Seq[String] = features

    /** The index of the first label of highest score for a raw
      * (unstandardized) feature vector; NaN when a score is NaN, as every
      * score is for a NaN feature.
      */
    def scoreAt(idx: Array[Int], x: Array[Double]): Double = {
      val zx = z(x)
      var best = 0; var bestScore = Double.NegativeInfinity
      var k = 0
      while (k < labels.length) {
        var s = weights(k)(0); var i = 0
        while (i < zx.length) { s += weights(k)(i + 1) * zx(i); i += 1 }
        if (s.isNaN) return Double.NaN
        if (s > bestScore) { bestScore = s; best = k }
        k += 1
      }
      best
    }

    /** Predicted label for a raw feature vector; null for a NaN feature. */
    def predict(x: Array[Double]): String = {
      val k = scoreAt(Array.emptyIntArray, x)
      if (k.isNaN) null else labels(k.toInt)
    }

    /** Each row's [[predict]] label; null for a row with a null, NaN or ±∞
      * feature.
      */
    def prediction: Column = typedLit(labels).getItem(ScoreExpr.column(this).cast("int"))

    /** Append `outCol` with each row's [[prediction]]. */
    def transform(df: DataFrame, outCol: String = "predicted"): DataFrame = df.withColumn(outCol, prediction)

    /** 1.0 where a row's prediction matches `labelCol`, else 0.0 (no prediction is a miss). */
    def hit(labelCol: String): Column = when(prediction === col(labelCol).cast("string"), 1.0).otherwise(0.0)

    /** Fraction of rows of `df` whose prediction matches `labelCol`; NaN if none. */
    def accuracy(df: DataFrame, labelCol: String): Double = {
      val row = df.agg(avg(hit(labelCol))).head()
      if (row.isNullAt(0)) Double.NaN else row.getDouble(0)
    }
  }

  /** Learning rate on the mean gradient. */
  private val LearningRate = 0.5

  /** L2 regularization on non-bias weights. */
  private val L2 = 1e-4

  /** Train with full-batch gradient descent on the rows with a label and
    * finite features; a row with a null, NaN or ±∞ feature is dropped.
    *
    * @param iters gradient steps (full batch each)
    */
  def fit(df: DataFrame, features: Seq[String], labelCol: String, iters: Int = 150): Model = {
    require(features.nonEmpty, "LogisticRegression.fit: no features")
    val complete = df.na.drop(labelCol +: features)
      .filter(features.map(f => abs(col(f).cast("double")) =!= Double.PositiveInfinity).reduce(_ && _))
    val z = Moments.of(complete, features).standardizer

    val rows = complete.select(col(labelCol).cast("string") +: features.map(col(_).cast("double")): _*).collect()
    require(rows.nonEmpty, "LogisticRegression.fit: empty training data")

    val labels = rows.map(_.getString(0)).distinct.sorted.toSeq
    val labelIdx = labels.zipWithIndex.toMap
    val m = features.length
    val x = rows.map(r => z(Array.tabulate(m)(i => r.getDouble(i + 1))))
    val y = rows.map(r => labelIdx(r.getString(0)))
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
          val reg = if (i == 0) 0.0 else L2 * w(k)(i)
          w(k)(i) -= LearningRate * (grad(k)(i) / n + reg)
          i += 1
        }
        k += 1
      }
      it += 1
    }
    Model(features, labels, z, w)
  }
}
