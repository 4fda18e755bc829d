package repro.ml

import org.apache.spark.sql.functions._
import repro.SparkSpec

class LogisticRegressionSpec extends SparkSpec {

  import spark.implicits._

  private def blobs(n: Int, centers: Seq[(String, Double, Double)], sigma: Double, seed: Int) = {
    val rnd = new scala.util.Random(seed)
    centers.flatMap { case (label, cx, cy) =>
      (1 to n).map(_ => (label, cx + rnd.nextGaussian() * sigma, cy + rnd.nextGaussian() * sigma))
    }.toDF("label", "x", "y")
  }

  test("separable two-class problem reaches high accuracy") {
    val df = blobs(150, Seq(("a", 0.0, 0.0), ("b", 6.0, 6.0)), sigma = 1.0, seed = 1)
    val m = LogisticRegression.fit(df, Seq("x", "y"), "label")
    assert(m.accuracy(df, "label") > 0.98)
  }

  test("three-class problem reaches high accuracy") {
    val df = blobs(120, Seq(("a", 0.0, 0.0), ("b", 8.0, 0.0), ("c", 4.0, 7.0)), sigma = 1.0, seed = 2)
    val m = LogisticRegression.fit(df, Seq("x", "y"), "label")
    assert(m.accuracy(df, "label") > 0.95)
  }

  test("labels are discovered and sorted") {
    val df = blobs(20, Seq(("zebra", 0.0, 0.0), ("ant", 5.0, 5.0)), 0.5, 3)
    val m = LogisticRegression.fit(df, Seq("x", "y"), "label", iters = 30)
    assert(m.labels == Seq("ant", "zebra"))
  }

  test("predict returns a known-class label") {
    val df = blobs(50, Seq(("a", 0.0, 0.0), ("b", 10.0, 10.0)), 0.5, 4)
    val m = LogisticRegression.fit(df, Seq("x", "y"), "label")
    assert(m.predict(Array(0.0, 0.0)) == "a")
    assert(m.predict(Array(10.0, 10.0)) == "b")
  }

  test("transform appends the prediction column") {
    val df = blobs(30, Seq(("a", 0.0, 0.0), ("b", 6.0, 6.0)), 0.5, 5)
    val out = LogisticRegression.fit(df, Seq("x", "y"), "label", iters = 50).transform(df, "p")
    assert(out.columns.contains("p"))
    assert(out.filter(col("p") === col("label")).count() >= 58)
  }

  test("transform picks predict's label on clean rows and a null label for a null feature") {
    val df = blobs(80, Seq(("a", 0.0, 0.0), ("b", 3.0, 0.0), ("c", 1.5, 2.5)), 1.0, 8)
    val m = LogisticRegression.fit(df, Seq("x", "y"), "label", iters = 60)
    m.transform(df, "p").collect().foreach { r =>
      assert(r.getString(3) == m.predict(Array(r.getDouble(1), r.getDouble(2))))
    }
    val withNull = df.union(Seq(("a", Option.empty[Double], 0.0)).toDF("label", "x", "y"))
    assert(m.transform(withNull, "p").filter(col("x").isNull).select("p").head().isNullAt(0))
    // The row with no prediction counts as a miss.
    val hits = m.accuracy(df, "label") * 240
    assert(math.abs(m.accuracy(withNull, "label") - hits / 241) < 1e-12)
  }

  test("predict and transform agree on a NaN row: no label") {
    val df = blobs(40, Seq(("a", 0.0, 0.0), ("b", 5.0, 5.0)), 1.0, 10)
    val m = LogisticRegression.fit(df, Seq("x", "y"), "label", iters = 40)
    assert(m.predict(Array(Double.NaN, 1.0)) == null)
    val nanRow = Seq(("a", Double.NaN, 1.0)).toDF("label", "x", "y")
    assert(m.transform(nanRow, "p").head().isNullAt(3))
  }

  test("accuracy of an empty frame is NaN") {
    val df = blobs(40, Seq(("a", 0.0, 0.0), ("b", 5.0, 5.0)), 1.0, 11)
    val m = LogisticRegression.fit(df, Seq("x", "y"), "label", iters = 20)
    assert(m.accuracy(df.limit(0), "label").isNaN)
  }

  test("fit drops a row with a null feature before training") {
    val df = blobs(60, Seq(("a", 0.0, 0.0), ("b", 4.0, 4.0)), 1.0, 9)
    val withNull = df.union(Seq(("b", Option.empty[Double], 9.0)).toDF("label", "x", "y"))
    val clean = LogisticRegression.fit(df, Seq("x", "y"), "label", iters = 40)
    val dirty = LogisticRegression.fit(withNull, Seq("x", "y"), "label", iters = 40)
    assert(java.util.Arrays.equals(dirty.z.means, clean.z.means) && java.util.Arrays.equals(dirty.z.stds, clean.z.stds))
    clean.weights.indices.foreach(k => assert(java.util.Arrays.equals(dirty.weights(k), clean.weights(k)), s"class $k"))
  }

  test("fit drops a row with an infinite feature, bit for bit") {
    val df = blobs(200, Seq(("a", 0.0, 0.0), ("b", 3.0, 3.0)), 1.0, 12)
    val dirty = df.union(Seq(("a", Double.PositiveInfinity, 0.0), ("b", 1.0, Double.NegativeInfinity)).toDF("label", "x", "y"))
    val clean = LogisticRegression.fit(df, Seq("x", "y"), "label")
    val fit = LogisticRegression.fit(dirty, Seq("x", "y"), "label")
    assert(java.util.Arrays.equals(fit.z.means, clean.z.means) && java.util.Arrays.equals(fit.z.stds, clean.z.stds))
    clean.weights.indices.foreach(k => assert(java.util.Arrays.equals(fit.weights(k), clean.weights(k)), s"class $k"))
    assert(fit.accuracy(df, "label") > 0.9)
  }

  test("accuracy on garbage data is near chance, not near one") {
    // Features carry no signal: accuracy ≈ 1/2 for two balanced classes.
    val rnd = new scala.util.Random(6)
    val df = (1 to 400).map(i => (if (i % 2 == 0) "a" else "b", rnd.nextGaussian(), rnd.nextGaussian()))
      .toDF("label", "x", "y")
    val m = LogisticRegression.fit(df, Seq("x", "y"), "label", iters = 50)
    val acc = m.accuracy(df, "label")
    assert(acc < 0.65, s"suspiciously high accuracy $acc on noise")
  }

  test("standardization handles very different feature scales") {
    val rnd = new scala.util.Random(7)
    val df = (1 to 300).map { i =>
      val cls = if (i % 2 == 0) "a" else "b"
      val base = if (cls == "a") 0.0 else 3.0
      (cls, (base + rnd.nextGaussian()) * 1e6, base + rnd.nextGaussian() * 0.5)
    }.toDF("label", "big", "small")
    val m = LogisticRegression.fit(df, Seq("big", "small"), "label")
    assert(m.accuracy(df, "label") > 0.9)
  }

  test("empty training data is rejected") {
    val df = Seq.empty[(String, Double)].toDF("label", "x")
    intercept[IllegalArgumentException](LogisticRegression.fit(df, Seq("x"), "label"))
  }
}
