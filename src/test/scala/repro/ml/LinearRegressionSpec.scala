package repro.ml

import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.{DoubleType, StructField, StructType}
import org.apache.spark.sql.Row
import org.scalacheck.{Gen, Prop}
import repro.{Oracle, PropCheck, SparkSpec}

class LinearRegressionSpec extends SparkSpec with PropCheck {

  import spark.implicits._

  test("recovers exact coefficients on noise-free linear data") {
    val rnd = new scala.util.Random(1)
    val df = (1 to 300).map { _ =>
      val a = rnd.nextDouble() * 10; val b = rnd.nextDouble() * 5
      (a, b, 3.0 * a - 2.0 * b + 7.0)
    }.toDF("a", "b", "y")
    val m = LinearRegression.fit(df, Seq("a", "b"), "y")
    assert(math.abs(m.intercept - 7.0) < 1e-4)
    assert(math.abs(m.weights(0) - 3.0) < 1e-5)
    assert(math.abs(m.weights(1) + 2.0) < 1e-5)
  }

  test("single-feature slope/intercept match DuckDB regr_slope/regr_intercept") {
    val rnd = new scala.util.Random(2)
    val df = (1 to 500).map { _ =>
      val x = rnd.nextDouble() * 100
      (x, 1.5 * x + 10 + rnd.nextGaussian() * 5)
    }.toDF("x", "y")
    val m = LinearRegression.fit(df, Seq("x"), "y", ridge = 0.0)
    val sparkDf = df.agg(
      lit(m.weights(0)).as("slope"),
      lit(m.intercept).as("icept"))
    Oracle.assertEquivalent(
      sparkDf,
      """SELECT regr_slope(CAST(y AS DOUBLE), CAST(x AS DOUBLE)) AS slope,
        |       regr_intercept(CAST(y AS DOUBLE), CAST(x AS DOUBLE)) AS icept
        |FROM pts""".stripMargin,
      "pts" -> df)
  }

  test("predictions on training data have near-zero MAE for noise-free data") {
    val df = (1 to 100).map(i => (i.toDouble, 2.0 * i + 1)).toDF("x", "y")
    val m = LinearRegression.fit(df, Seq("x"), "y")
    assert(m.mae(df, "y") < 1e-4)
  }

  test("transform appends predictions without disturbing other columns") {
    val df = (1 to 50).map(i => (i.toDouble, i * 3.0)).toDF("x", "y")
    val m = LinearRegression.fit(df, Seq("x"), "y")
    val out = m.transform(df, "pred")
    assert(out.columns.toSeq == Seq("x", "y", "pred"))
    val r = out.filter(col("x") === 10.0).select("pred").as[Double].head()
    assert(math.abs(r - 30.0) < 1e-6)
  }

  test("transform equals predict bit for bit, and a null feature gives a null prediction that mae skips") {
    val rnd = new scala.util.Random(4)
    // Three features, so the summation order shows in the bits.
    val df = (1 to 200).map { _ =>
      val a = rnd.nextGaussian() * 1e3; val b = rnd.nextDouble(); val c = rnd.nextGaussian() * 1e-3
      (Option(a), b, c, 0.3 * a - 7 * b + 50 * c + rnd.nextGaussian())
    }.toDF("a", "b", "c", "y")
    val m = LinearRegression.fit(df, Seq("a", "b", "c"), "y")
    m.transform(df, "pred").collect().foreach { r =>
      val expected = m.predict(Array(r.getDouble(0), r.getDouble(1), r.getDouble(2)))
      assert(java.lang.Double.doubleToRawLongBits(r.getDouble(4)) == java.lang.Double.doubleToRawLongBits(expected))
    }
    val withNull = df.union(Seq((Option.empty[Double], 0.5, 0.0, 1.0)).toDF("a", "b", "c", "y"))
    assert(m.transform(withNull, "pred").filter(col("a").isNull).select("pred").head().isNullAt(0))
    assert(m.mae(withNull, "y") == m.mae(df, "y"))
  }

  test("mae skips a row with an infinite feature, bit for bit") {
    val rnd = new scala.util.Random(5)
    val df = (1 to 400).map { _ =>
      val a = rnd.nextGaussian() * 10; val b = rnd.nextDouble()
      (a, b, 2 * a - 3 * b + rnd.nextGaussian())
    }.toDF("a", "b", "y")
    val m = LinearRegression.fit(df, Seq("a", "b"), "y")
    val dirty = df.union(Seq((Double.PositiveInfinity, 0.5, 1.0), (Double.NegativeInfinity, 0.5, 1.0)).toDF("a", "b", "y"))
    assert(java.lang.Double.doubleToRawLongBits(m.mae(dirty, "y")) == java.lang.Double.doubleToRawLongBits(m.mae(df, "y")))
  }

  test("mae of an empty frame is NaN") {
    val df = Seq((1.0, 10.0), (2.0, 14.0)).toDF("x", "y")
    assert(LinearRegression.Model(Seq("x"), 6.0, Array(4.0)).mae(df.limit(0), "y").isNaN)
  }

  test("collinear features are handled via ridge (airlines scenario)") {
    // b == 2a exactly: the normal equations are singular without ridge.
    val rnd = new scala.util.Random(3)
    val df = (1 to 200).map { _ =>
      val a = rnd.nextDouble() * 10
      (a, 2 * a, 5 * a + rnd.nextGaussian() * 0.01)
    }.toDF("a", "b", "y")
    val m = LinearRegression.fit(df, Seq("a", "b"), "y")
    // Prediction still works: w_a + 2·w_b ≈ 5.
    assert(math.abs(m.weights(0) + 2 * m.weights(1) - 5.0) < 0.01)
    assert(m.mae(df, "y") < 0.1)
  }

  test("mae against a known constant predictor") {
    val df = Seq((1.0, 10.0), (1.0, 14.0)).toDF("x", "y")
    val m = LinearRegression.Model(Seq("x"), 12.0, Array(0.0))
    assert(math.abs(m.mae(df, "y") - 2.0) < 1e-12)
  }

  test("target among features is rejected") {
    val df = Seq((1.0, 2.0)).toDF("x", "y")
    intercept[IllegalArgumentException](LinearRegression.fit(df, Seq("x", "y"), "y"))
  }

  test("multivariate fit matches the closed form computed by hand (tiny system)") {
    // y = x1 + x2 on 4 points; unique LS solution.
    val df = Seq((0.0, 0.0, 0.0), (1.0, 0.0, 1.0), (0.0, 1.0, 1.0), (1.0, 1.0, 2.0))
      .toDF("x1", "x2", "y")
    val m = LinearRegression.fit(df, Seq("x1", "x2"), "y", ridge = 0.0)
    assert(math.abs(m.intercept) < 1e-10)
    assert(math.abs(m.weights(0) - 1.0) < 1e-10)
    assert(math.abs(m.weights(1) - 1.0) < 1e-10)
  }

  test("fitted beta solves the ridged normal equations (random designs)") {
    // Designs have 2 to 6 features. Each column has its own scale in 1e-3..1e3. The equations are formed on
    // the driver from the collected rows. Cholesky is backward stable and
    // diagonal-scale invariant, and by Cauchy–Schwarz |Σ xᵢxⱼ| ≤ √(AᵢᵢAⱼⱼ),
    // so row i of the residual, summation-order round-off included, is
    // bounded by a small multiple of the unit round-off times
    // Σⱼ √(AᵢᵢAⱼⱼ)|βⱼ| + √(Aᵢᵢ·Σy²).
    val design = for {
      k <- Gen.choose(2, 6)
      scales <- Gen.listOfN(k, Gen.choose(-3.0, 3.0).map(math.pow(10, _)))
      seed <- Gen.choose(0L, 1L << 40)
    } yield (scales, seed)
    checkProp(Prop.forAll(design) { case (scales, seed) =>
      val k = scales.length
      val rnd = new scala.util.Random(seed)
      val rows = Seq.fill(60) {
        val x = scales.map(s => s * (rnd.nextGaussian() + 0.5))
        Row.fromSeq(x :+ (x.zipWithIndex.map { case (v, j) => v * (j - 2.5) / scales(j) }.sum + rnd.nextGaussian()))
      }
      val names = (0 until k).map(j => s"x$j")
      val schema = StructType((names :+ "y").map(StructField(_, DoubleType)))
      val m = LinearRegression.fit(spark.createDataFrame(spark.sparkContext.parallelize(rows, 3), schema), names, "y")
      val xs = rows.map(r => 1.0 +: (0 until k).map(r.getDouble))
      val ys = rows.map(_.getDouble(k))
      val a = Array.tabulate(k + 1, k + 1)((i, j) => xs.map(x => x(i) * x(j)).sum)
      val b = Array.tabulate(k + 1)(i => xs.zip(ys).map { case (x, y) => x(i) * y }.sum)
      val yy = ys.map(y => y * y).sum
      val lambda = 1e-10 * math.max((0 to k).map(i => a(i)(i)).sum / (k + 1), 1.0)
      val beta = m.intercept +: m.weights.toSeq
      (0 to k).forall { i =>
        val r = (0 to k).map(j => a(i)(j) * beta(j)).sum + lambda * beta(i) - b(i)
        val scale = (0 to k).map(j => math.sqrt(a(i)(i) * a(j)(j)) * math.abs(beta(j))).sum + math.sqrt(a(i)(i) * yy)
        math.abs(r) <= 1e-12 * scale
      }
    }, minSuccess = 12)
  }

  private def duplicateColumns = {
    val rnd = new scala.util.Random(6)
    (1 to 200).map { _ =>
      val a = rnd.nextDouble() * 10
      (a, a, 3 * a + rnd.nextGaussian())
    }.toDF("a", "b", "y")
  }

  test("duplicate columns without ridge are rejected") {
    intercept[IllegalArgumentException](LinearRegression.fit(duplicateColumns, Seq("a", "b"), "y", ridge = 0.0))
  }

  test("duplicate columns under the default ridge get equal weights") {
    val m = LinearRegression.fit(duplicateColumns, Seq("a", "b"), "y")
    assert(math.abs(m.weights(0) - m.weights(1)) < 1e-3)
  }

  test("a frame with no complete row is rejected, not fitted to the zero model") {
    val df = Seq((Option(1.0), 2.0), (None, 3.0), (Some(Double.NaN), 4.0)).toDF("x", "y")
    intercept[IllegalArgumentException](LinearRegression.fit(df.limit(0), Seq("x"), "y"))
    intercept[IllegalArgumentException](LinearRegression.fit(df.filter(col("x").isNull || col("x").isNaN), Seq("x"), "y"))
  }
}
