package repro.stats

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec, SynthData}

class MomentsSpec extends SparkSpec {

  private lazy val li = SynthData.lineitem(spark, sf = 0.002).cache()
  private val cols = Seq("l_quantity", "l_extendedprice", "l_discount")
  private lazy val mom = Moments.of(li, cols)

  test("row count matches the DataFrame count") {
    assert(mom.n == li.count())
  }

  test("sums match Spark aggregation") {
    val row = li.agg(sum(col("l_quantity")), sum(col("l_extendedprice")), sum(col("l_discount"))).head()
    for (i <- cols.indices)
      assert(math.abs(mom.sums(i) - row.getDouble(i)) < 1e-6 * (1 + math.abs(row.getDouble(i))))
  }

  test("sums and cross-products match the DuckDB oracle") {
    // Aggregates are kept at modest magnitude: the oracle compares to six
    // absolute decimals, and engines sum floats in different orders.
    val sparkDf = li.agg(
      sum(col("l_quantity")).as("s_q"),
      sum(col("l_quantity") * col("l_discount")).as("s_qd"),
      sum(col("l_discount") * col("l_discount")).as("s_dd"),
    )
    Oracle.assertEquivalent(
      sparkDf,
      """SELECT sum(CAST(l_quantity AS DOUBLE)) AS s_q,
        |       sum(CAST(l_quantity AS DOUBLE) * CAST(l_discount AS DOUBLE)) AS s_qd,
        |       sum(CAST(l_discount AS DOUBLE) * CAST(l_discount AS DOUBLE)) AS s_dd
        |FROM lineitem""".stripMargin,
      "lineitem" -> li)
    // And Moments agrees with the same Spark aggregates.
    val row = sparkDf.head()
    assert(math.abs(mom.sums(0) - row.getDouble(0)) < 1e-6 * (1 + math.abs(row.getDouble(0))))
    assert(math.abs(mom.gram(0, 2) - row.getDouble(1)) < 1e-6 * (1 + math.abs(row.getDouble(1))))
    assert(math.abs(mom.gram(2, 2) - row.getDouble(2)) < 1e-6 * (1 + math.abs(row.getDouble(2))))
  }

  test("gram matrix is symmetric") {
    for (i <- cols.indices; j <- cols.indices)
      assert(mom.gram(i, j) == mom.gram(j, i))
  }

  test("means match Spark avg") {
    val row = li.agg(avg(col("l_quantity")), avg(col("l_extendedprice")), avg(col("l_discount"))).head()
    val means = mom.means
    for (i <- cols.indices)
      assert(math.abs(means(i) - row.getDouble(i)) < 1e-8 * (1 + math.abs(row.getDouble(i))))
  }

  test("per-column variance via unit projection matches Spark var_pop") {
    val row = li.agg(var_pop(col("l_quantity")), var_pop(col("l_discount"))).head()
    val vQ = mom.varianceOf(Array(1.0, 0.0, 0.0))
    val vD = mom.varianceOf(Array(0.0, 0.0, 1.0))
    assert(math.abs(vQ - row.getDouble(0)) < 1e-6 * (1 + row.getDouble(0)))
    assert(math.abs(vD - row.getDouble(1)) < 1e-6 * (1 + row.getDouble(1)))
  }

  test("projection variance matches Spark var_pop of the linear form") {
    val w = Array(0.5, 0.001, -2.0)
    val form = col("l_quantity") * 0.5 + col("l_extendedprice") * 0.001 - col("l_discount") * 2.0
    val expected = li.agg(var_pop(form)).head().getDouble(0)
    assert(math.abs(mom.varianceOf(w) - expected) < 1e-5 * (1 + expected))
  }

  test("projection mean matches Spark avg of the linear form") {
    val w = Array(1.0, -0.5, 3.0)
    val form = col("l_quantity") - col("l_extendedprice") * 0.5 + col("l_discount") * 3.0
    val expected = li.agg(avg(form)).head().getDouble(0)
    assert(math.abs(mom.meanOf(w) - expected) < 1e-6 * (1 + math.abs(expected)))
  }

  private def unit(m: Int, i: Int): Array[Double] = Array.tabulate(m)(j => if (j == i) 1.0 else 0.0)

  /** Moments of (a, b, c) where b is constant and c = 2a − 1 + noise. */
  private lazy val withConstant = {
    import spark.implicits._
    val rnd = new scala.util.Random(5)
    val df = (1 to 200).map { _ =>
      val a = 100 + rnd.nextGaussian(); (a, 7.25, 2 * a - 1 + rnd.nextGaussian() * 0.1)
    }.toDF("a", "b", "c")
    Moments.of(df, Seq("a", "b", "c"))
  }

  test("stds equal stdOf of each unit vector bit for bit") {
    for (mo <- Seq(mom, withConstant); i <- mo.cols.indices) {
      val want = mo.stdOf(unit(mo.cols.length, i))
      assert(java.lang.Double.doubleToRawLongBits(mo.stds(i)) == java.lang.Double.doubleToRawLongBits(want),
        s"${mo.cols(i)}: ${mo.stds(i)} vs $want")
    }
    assert(withConstant.stds(1) == 0.0)
  }

  test("correlation: unit diagonal, symmetric, a constant column correlates with nothing") {
    for (mo <- Seq(mom, withConstant)) {
      val r = mo.correlation
      for (i <- mo.cols.indices) {
        assert(math.abs(r(i, i) - 1.0) < 1e-12, s"diagonal $i: ${r(i, i)}")
        for (j <- mo.cols.indices) assert(r(i, j) == r(j, i))
      }
    }
    val r = withConstant.correlation
    assert(r(1, 1) == 1.0)
    for (j <- Seq(0, 2)) assert(r(1, j) == 0.0 && r(j, 1) == 0.0)
    assert(r(0, 2) > 0.99)
  }

  test("the standardizer z-scores each column and only centres a constant one") {
    val z = withConstant.standardizer
    val (mu, sd) = (withConstant.means, withConstant.stds)
    val x = Array(101.0, 9.25, 200.0)
    val zx = z(x)
    assert(zx(0) == (101.0 - mu(0)) / sd(0) && zx(2) == (200.0 - mu(2)) / sd(2))
    assert(zx(1) == 9.25 - mu(1) && zx(1) == 2.0)
    // Training means map to 0.
    assert(z(mu).forall(_ == 0.0))
  }

  test("covariance diagonal equals variances and matches covar_pop off-diagonal") {
    val cov = mom.covariance
    assert(math.abs(cov(0, 0) - mom.varianceOf(Array(1.0, 0.0, 0.0))) < 1e-8)
    val expected = li.agg(covar_pop(col("l_quantity"), col("l_discount"))).head().getDouble(0)
    assert(math.abs(cov(0, 2) - expected) < 1e-6 * (1 + math.abs(expected)))
  }

  test("augmentedGram embeds n, sums, and gram") {
    val g = mom.augmentedGram
    assert(g(0, 0) == mom.n.toDouble)
    for (i <- cols.indices) {
      assert(g(0, i + 1) == mom.sums(i))
      assert(g(i + 1, 0) == mom.sums(i))
      for (j <- cols.indices) assert(g(i + 1, j + 1) == mom.gram(i, j))
    }
  }

  test("rows with nulls are dropped") {
    import spark.implicits._
    val df = Seq[(java.lang.Double, java.lang.Double)]((1.0, 2.0), (null, 3.0), (4.0, 5.0))
      .toDF("a", "b")
    val m = Moments.of(df, Seq("a", "b"))
    assert(m.n == 2)
    assert(m.sums(0) == 5.0 && m.sums(1) == 7.0)
  }

  test("byGroup partitions moments by the group column") {
    import spark.implicits._
    val df = Seq(("x", 1.0), ("x", 3.0), ("y", 10.0)).toDF("g", "v")
    val by = Moments.byGroup(df, Seq("v"), "g")
    assert(by.keySet == Set("x", "y"))
    assert(by("x").n == 2 && by("x").sums(0) == 4.0 && by("x").gram(0, 0) == 10.0)
    assert(by("y").n == 1 && by("y").sums(0) == 10.0)
  }

  test("byGroup matches a DuckDB grouped aggregate") {
    val df = SynthData.orders(spark, sf = 0.002)
    val by = Moments.byGroup(df, Seq("o_totalprice"), "o_orderstatus")
    val sparkDf = df.groupBy(col("o_orderstatus")).agg(
      count(lit(1)).cast("double").as("n"),
      sum(col("o_totalprice")).as("s"))
    Oracle.assertEquivalent(
      sparkDf,
      """SELECT o_orderstatus, CAST(count(*) AS DOUBLE) AS n,
        |       sum(CAST(o_totalprice AS DOUBLE)) AS s
        |FROM orders GROUP BY o_orderstatus""".stripMargin,
      "orders" -> df)
    sparkDf.collect().foreach { r =>
      val m = by(r.getString(0))
      assert(m.n.toDouble == r.getDouble(1))
      assert(math.abs(m.sums(0) - r.getDouble(2)) < 1e-6 * (1 + math.abs(r.getDouble(2))))
    }
  }

  test("byGroup drops null group keys and null numerics") {
    import spark.implicits._
    val df = Seq[(String, java.lang.Double)](("x", 1.0), (null, 2.0), ("x", null))
      .toDF("g", "v")
    val by = Moments.byGroup(df, Seq("v"), "g")
    assert(by.keySet == Set("x"))
    assert(by("x").n == 1)
  }

  test("empty column list is rejected") {
    intercept[IllegalArgumentException](Moments.of(li, Nil))
  }

  test("variance is clamped non-negative on exact linear dependence") {
    import spark.implicits._
    val df = (1 to 100).map(i => (i.toDouble, 2.0 * i)).toDF("a", "b")
    val m = Moments.of(df, Seq("a", "b"))
    // b − 2a ≡ 0: variance must be exactly 0 after clamping.
    assert(m.varianceOf(Array(-2.0, 1.0)) == 0.0)
    assert(m.stdOf(Array(-2.0, 1.0)) == 0.0)
  }

  test("a NaN numeric drops the row like a null") {
    import spark.implicits._
    val df = Seq(("x", 1.0, 2.0), ("x", Double.NaN, 3.0), ("y", 4.0, 5.0), ("y", 6.0, Double.NaN))
      .toDF("g", "a", "b")
    val m = Moments.of(df, Seq("a", "b"))
    assert(m.n == 2)
    assert(m.sums(0) == 5.0 && m.sums(1) == 7.0)
    val by = Moments.byGroup(df, Seq("a", "b"), "g")
    assert(by("x").n == 1 && by("y").n == 1)
  }

  test("empty input gives n = 0 and zero sums") {
    import spark.implicits._
    val df = Seq.empty[(String, Double)].toDF("g", "v")
    val m = Moments.of(df, Seq("v"))
    assert(m.n == 0 && m.sums.toSeq == Seq(0.0) && m.gram(0, 0) == 0.0)
    assert(Moments.byGroup(df, Seq("v"), "g").isEmpty)
  }

  test("scan: a null group key counts in the global moments and in no group") {
    import spark.implicits._
    val df = Seq[(String, Double)](("x", 1.0), (null, 2.0), ("y", 4.0)).toDF("g", "v")
    val scan = Moments.scan(df, Seq("v"), Seq("g"))
    assert(scan.global.n == 3 && scan.global.sums(0) == 7.0)
    val groups = scan.groups.head.get
    assert(groups.keySet == Set("x", "y"))
    assert(groups.values.map(_.n).sum == 2)
  }

  test("scan: a column over maxDistinct is None, and values of null-numeric rows count") {
    import spark.implicits._
    // g has 4 distinct values, d only on a row whose numeric is null; h has 3.
    val df = Seq[(String, String, java.lang.Double)](
      ("a", "a", 1.0), ("b", "b", 2.0), ("c", "c", 3.0), ("d", "c", null), ("a", null, 5.0))
      .toDF("g", "h", "v")
    val scan = Moments.scan(df, Seq("v"), Seq("g", "h"), maxDistinct = 3)
    assert(scan.groups.head.isEmpty)
    assert(scan.groups(1).get.keySet == Set("a", "b", "c"))
    assert(Moments.scan(df, Seq("v"), Seq("g"), maxDistinct = 4).groups.head.get.keySet == Set("a", "b", "c"))
  }

  /** Rows with a small-integer group key and offset, correlated numerics. */
  private def groupedRows(n: Int): Seq[(String, Double, Double, Double)] = {
    val rnd = new scala.util.Random(11)
    (1 to n).map { i =>
      val a = 1000.0 + rnd.nextDouble() * 10; val b = rnd.nextGaussian()
      (s"k${i % 5}", a, b, a - 3 * b + rnd.nextGaussian() * 0.01)
    }
  }

  private def assertClose(x: Moments, y: Moments, rel: Double): Unit = {
    assert(x.n == y.n && x.cols == y.cols)
    def close(p: Double, q: Double) = math.abs(p - q) <= rel * math.max(math.abs(p), math.abs(q))
    x.sums.indices.foreach(i => assert(close(x.sums(i), y.sums(i)), s"sum $i: ${x.sums(i)} vs ${y.sums(i)}"))
    x.gram.data.indices.foreach(k => assert(close(x.gram.data(k), y.gram.data(k)), s"gram $k"))
  }

  test("moments do not depend on partition count or row order") {
    import spark.implicits._
    val rows = groupedRows(3000)
    val cols = Seq("a", "b", "c")
    def scanOf(rs: Seq[(String, Double, Double, Double)], parts: Int) =
      Moments.scan(spark.sparkContext.parallelize(rs, parts).toDF("g", "a", "b", "c"), cols, Seq("g"))
    val ref = scanOf(rows, 1)
    for (other <- Seq(scanOf(rows, 3), scanOf(rows, 8), scanOf(rows.reverse, 4))) {
      assertClose(ref.global, other.global, 1e-9)
      val (rg, og) = (ref.groups.head.get, other.groups.head.get)
      assert(rg.keySet == og.keySet)
      rg.keys.foreach(k => assertClose(rg(k), og(k), 1e-9))
    }
  }

  /** Bit for bit (`Arrays.equals` compares the doubles' bits). */
  private def same(x: Moments, y: Moments) =
    x.n == y.n && x.cols == y.cols && java.util.Arrays.equals(x.sums, y.sums) &&
      java.util.Arrays.equals(x.gram.data, y.gram.data)

  test("two scans of the same partitioning give bit-identical moments") {
    import spark.implicits._
    val df = spark.sparkContext.parallelize(groupedRows(3000), 6).toDF("g", "a", "b", "c")
    val cols = Seq("a", "b", "c")
    val s1 = Moments.scan(df, cols, Seq("g"))
    val s2 = Moments.scan(df, cols, Seq("g"))
    assert(same(s1.global, s2.global))
    val (g1, g2) = (s1.groups.head.get, s2.groups.head.get)
    assert(g1.keySet == g2.keySet && g1.keys.forall(k => same(g1(k), g2(k))))
  }

  test("scan: the global moments equal Moments.of bit for bit, whatever groups ride along") {
    import spark.implicits._
    // g has 5 values, h 7, k 5 and a null on every 11th row; 1 in 13 rows
    // has a NaN, so group keys of dropped rows are seen too.
    val rows = groupedRows(3000).zipWithIndex.map { case ((g, a, b, c), i) =>
      (g, s"h${i % 7}", if (i % 11 == 0) null else g, if (i % 13 == 0) Double.NaN else a, b, c)
    }
    val cols = Seq("a", "b", "c")
    for (parts <- Seq(1, 3, 8)) {
      val df = spark.sparkContext.parallelize(rows, parts).toDF("g", "h", "k", "a", "b", "c")
      val of = Moments.of(df, cols)
      assert(of.n == 3000 - 231)
      // maxDistinct 5: h goes over, g and k do not.
      for (groups <- Seq(Seq("g"), Seq("h"), Seq("k"), Seq("g", "h"), Seq("h", "k", "g"))) {
        val scan = Moments.scan(df, cols, groups, maxDistinct = 5)
        assert(scan.groupCols == groups)
        assert(scan.groups.map(_.isEmpty) == groups.map(_ == "h"))
        assert(same(scan.global, of), s"$parts partitions, groups $groups")
      }
    }
  }
}
