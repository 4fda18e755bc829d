package repro.core

import org.apache.spark.sql.functions._
import repro.{JobCounts, SparkSpec}
import repro.stats.Moments

class DisynthSpec extends SparkSpec with JobCounts {

  import spark.implicits._

  private def linearData(n: Int, seed: Int = 1) = {
    val rnd = new scala.util.Random(seed)
    (1 to n).map { _ =>
      val a = rnd.nextDouble() * 10; val b = rnd.nextDouble() * 10
      (a, b, a + b + rnd.nextGaussian() * 0.01)
    }.toDF("a", "b", "c")
  }

  test("fit learns the additive invariant and score flags violating tuples") {
    val model = Disynth.fit(linearData(500), Seq("a", "b", "c"))
    val test = Seq(
      (2.0, 3.0, 5.0),   // conforming: c = a + b
      (2.0, 3.0, 50.0),  // violating
    ).toDF("a", "b", "c")
    val scores = Disynth.score(test, model).select("violation").as[Double].collect()
    assert(scores(0) < 0.01, s"conforming tuple scored ${scores(0)}")
    assert(scores(1) > 0.1, s"violating tuple scored ${scores(1)}")
  }

  test("score keeps all original columns and appends the requested name") {
    val df = linearData(100)
    val model = Disynth.fit(df, Seq("a", "b", "c"))
    val out = Disynth.score(df, model, "v")
    assert(out.columns.toSeq == Seq("a", "b", "c", "v"))
  }

  test("violation column is always within [0,1]") {
    val model = Disynth.fit(linearData(300), Seq("a", "b", "c"))
    val wild = (1 to 200).map(i => (i * 1000.0, -i * 500.0, i.toDouble)).toDF("a", "b", "c")
    val mm = Disynth.score(wild, model).agg(min(col("violation")), max(col("violation"))).head()
    assert(mm.getDouble(0) >= 0.0 && mm.getDouble(1) <= 1.0)
  }

  test("avgViolation of the training data is near zero") {
    val df = linearData(500)
    val model = Disynth.fit(df, Seq("a", "b", "c"))
    assert(Disynth.avgViolation(df, model) < 0.01)
  }

  test("null numeric values score the maximal violation") {
    val df = linearData(200)
    val model = Disynth.fit(df, Seq("a", "b", "c"))
    val withNull = Seq[(java.lang.Double, java.lang.Double, java.lang.Double)]((1.0, null, 2.0))
      .toDF("a", "b", "c")
    val v = Disynth.score(withNull, model).select("violation").as[Double].head()
    assert(v == 1.0)
  }

  test("disjunctive fit: per-partition invariants beat a global fit on piecewise data") {
    // Figure 2's scenario: three linear pieces keyed by a categorical attr.
    val rnd = new scala.util.Random(2)
    val rows = for (g <- Seq("g1", "g2", "g3"); _ <- 1 to 200) yield {
      val x = rnd.nextDouble() * 10
      val y = g match {
        case "g1" => 2 * x + rnd.nextGaussian() * 0.05
        case "g2" => -x + 30 + rnd.nextGaussian() * 0.05
        case _    => 0.5 * x - 10 + rnd.nextGaussian() * 0.05
      }
      (g, x, y)
    }
    val df = rows.toDF("g", "x", "y")
    val disjModel = Disynth.fit(df, Seq("x", "y"), Seq("g"))
    assert(disjModel.disjunctive.nonEmpty)
    assert(disjModel.disjunctive.head.cases.keySet == Set("g1", "g2", "g3"))
    // A tuple on g1's line but labeled g2 violates; labeled g1 it conforms.
    val probe = Seq(("g1", 5.0, 10.0), ("g2", 5.0, 10.0)).toDF("g", "x", "y")
    val scores = Disynth.score(probe, disjModel).select("violation").as[Double].collect()
    assert(scores(0) < 0.02)
    assert(scores(1) > 0.3)
    // The per-partition minimum σ is far tighter than the global one.
    val globalMin = disjModel.global.inv.conjuncts.map(_.std).min
    val partMins = disjModel.disjunctive.head.cases.values.map(_.inv.conjuncts.map(_.std).min)
    assert(partMins.forall(_ < globalMin))
  }

  test("unseen partition value scores 1 under the compound invariant") {
    val df = Seq(("g1", 1.0), ("g1", 2.0), ("g2", 5.0), ("g2", 6.0)).toDF("g", "x")
    val model = Disynth.fit(df, Seq("x"), Seq("g"))
    val probe = Seq(("g9", 1.5)).toDF("g", "x")
    assert(Disynth.score(probe, model).select("violation").as[Double].head() == 1.0)
  }

  test("partition attributes exceeding maxDistinct are skipped") {
    val df = (1 to 100).map(i => (s"v$i", i.toDouble)).toDF("g", "x")
    val model = Disynth.fit(df, Seq("x"), Seq("g"), Disynth.Config(maxDistinct = 50))
    assert(model.disjunctive.isEmpty)
  }

  test("partitions below minPartRows get no branch (score 1 there)") {
    val df = (Seq(("solo", 1.0)) ++ (1 to 50).map(i => ("big", i.toDouble))).toDF("g", "x")
    val model = Disynth.fit(df, Seq("x"), Seq("g"))
    assert(model.disjunctive.head.cases.keySet == Set("big"))
    val probe = Seq(("solo", 1.0)).toDF("g", "x")
    assert(Disynth.score(probe, model).select("violation").as[Double].head() == 1.0)
  }

  test("autoFit assigns numeric columns to projections and small strings to partitions") {
    val df = Seq(("g1", 1.0, 5L), ("g2", 2.0, 6L), ("g1", 3.0, 7L)).toDF("g", "x", "y")
    val model = Disynth.autoFit(df)
    assert(model.numericCols.toSet == Set("x", "y"))
    assert(model.partitionAttrs == Seq("g"))
  }

  test("autoFit excludes requested columns entirely") {
    val df = Seq(("g1", 1.0, 9.0), ("g2", 2.0, 8.0)).toDF("g", "x", "target")
    val model = Disynth.autoFit(df, exclude = Seq("target", "g"))
    assert(model.numericCols == Seq("x"))
    assert(model.partitionAttrs.isEmpty)
  }

  test("autoFit skips high-cardinality string columns") {
    val rows = (1 to 200).map(i => (s"id$i", i.toDouble))
    val df = rows.toDF("id", "x")
    val model = Disynth.autoFit(df)
    assert(model.partitionAttrs.isEmpty)
    assert(model.numericCols == Seq("x"))
  }

  test("fit requires at least one numeric column") {
    val df = Seq(("a", 1.0)).toDF("g", "x")
    intercept[IllegalArgumentException](Disynth.fit(df, Nil, Seq("g")))
  }

  test("drift semantics: violation grows with displacement (quantitative, not Boolean)") {
    val rnd = new scala.util.Random(4)
    val train = (1 to 500).map(_ => (rnd.nextGaussian(), rnd.nextGaussian())).toDF("x", "y")
    val model = Disynth.fit(train, Seq("x", "y"))
    val drifts = Seq(0.0, 5.0, 8.0, 12.0).map { d =>
      val shifted = (1 to 300).map(_ => (rnd.nextGaussian() + d, rnd.nextGaussian())).toDF("x", "y")
      Disynth.avgViolation(shifted, model)
    }
    assert(drifts(0) < 0.02)
    assert(drifts.zip(drifts.tail).forall { case (a, b) => a < b + 1e-9 }, s"not monotone: $drifts")
    assert(drifts.last > 0.5)
  }

  test("fit/score are deterministic for a fixed seed") {
    val df = linearData(200, seed = 9)
    val m1 = Disynth.fit(df, Seq("a", "b", "c"))
    val m2 = Disynth.fit(df, Seq("a", "b", "c"))
    val probe = Seq((1.0, 2.0, 10.0)).toDF("a", "b", "c")
    val v1 = Disynth.score(probe, m1).select("violation").as[Double].head()
    val v2 = Disynth.score(probe, m2).select("violation").as[Double].head()
    assert(v1 == v2)
  }

  test("a null partition key counts in the global fit but in no branch") {
    val df = Seq[(String, Double)](("g1", 1.0), ("g1", 2.0), (null, 3.0), ("g2", 5.0), ("g2", 7.0))
      .toDF("g", "x")
    val model = Disynth.fit(df, Seq("x"), Seq("g"))
    assert(model.global.n == 5)
    val cases = model.disjunctive.head.cases
    assert(cases.keySet == Set("g1", "g2"))
    assert(cases.values.map(_.n).sum == 4)
  }

  test("autoFit skips an attribute with maxDistinct + 1 values, as countDistinct does") {
    // g: a, b, c on clean rows and d only on a null-numeric row (4 values);
    // h: a, b on clean rows and c only on a null-numeric row (3 values).
    val df = Seq[(String, String, java.lang.Double)](
      ("a", "a", 1.0), ("a", "a", 2.0), ("b", "b", 3.0), ("b", "b", 5.0),
      ("c", "a", 4.0), ("c", "b", 6.0), ("d", "c", null))
      .toDF("g", "h", "x")
    val counts = df.agg(countDistinct(col("g")), countDistinct(col("h"))).head()
    assert(counts.getLong(0) == 4 && counts.getLong(1) == 3)
    val model = Disynth.autoFit(df, cfg = Disynth.Config(maxDistinct = 3))
    assert(model.partitionAttrs == Seq("h"))
    assert(model.disjunctive.head.cases.keySet == Set("a", "b"))
    assert(Disynth.autoFit(df, cfg = Disynth.Config(maxDistinct = 4)).partitionAttrs == Seq("g", "h"))
  }

  test("a boolean partition attribute renders as true/false") {
    val rows = (1 to 60).map(i => (i % 2 == 0, i.toDouble, if (i % 2 == 0) 2.0 * i else -i.toDouble))
    val model = Disynth.autoFit(rows.toDF("flag", "x", "y"))
    assert(model.partitionAttrs == Seq("flag"))
    assert(model.disjunctive.head.cases.keySet == Set("true", "false"))
    val probe = Seq((true, 10.0, 20.0), (false, 10.0, 20.0)).toDF("flag", "x", "y")
    val scores = Disynth.score(probe, model).select("violation").as[Double].collect()
    assert(scores(0) < 0.01 && scores(1) > 0.1)
  }

  test("empty input fits an empty model") {
    val model = Disynth.fit(Seq.empty[(String, Double)].toDF("g", "x"), Seq("x"), Seq("g"))
    assert(model.global.n == 0 && model.disjunctive.isEmpty)
  }

  /** Rows keyed by g with a different near-exact linear relation per key. */
  private def pieceRows(n: Int): Seq[(String, Double, Double, Double)] = {
    val rnd = new scala.util.Random(13)
    (1 to n).map { i =>
      val g = s"g${i % 3}"
      val a = rnd.nextDouble() * 10; val b = rnd.nextGaussian() * 2
      (g, a, b, (i % 3 + 1) * a - b + rnd.nextGaussian() * 0.05)
    }
  }

  /** Same conjuncts in the same order: weights equal up to sign, and the
    * bounds, σ and γ equal under that sign, all within `tol` (relative).
    */
  private def assertSameInvariant(x: SimpleInvariant, y: SimpleInvariant, tol: Double): Unit = {
    def close(p: Double, q: Double) = math.abs(p - q) <= tol * (1 + math.max(math.abs(p), math.abs(q)))
    assert(x.conjuncts.length == y.conjuncts.length)
    x.conjuncts.zip(y.conjuncts).foreach { case (p, q) =>
      val (wp, wq) = (p.weights, q.weights)
      val sign = math.signum(wp.zip(wq).map { case (u, v) => u * v }.sum)
      assert(wp.indices.forall(i => close(wp(i), sign * wq(i))), s"weights ${wp.toSeq} vs ${wq.toSeq}")
      val (lb, ub) = if (sign > 0) (q.lb, q.ub) else (-q.ub, -q.lb)
      assert(close(p.lb, lb) && close(p.ub, ub), s"bounds [${p.lb}, ${p.ub}] vs [$lb, $ub]")
      assert(close(p.std, q.std) && close(p.gamma, q.gamma))
    }
  }

  private def assertSameModel(x: ConformanceModel, y: ConformanceModel, tol: Double): Unit = {
    assertSameInvariant(x.global.inv, y.global.inv, tol)
    assert(x.partitionAttrs == y.partitionAttrs)
    x.disjunctive.zip(y.disjunctive).foreach { case (dx, dy) =>
      assert(dx.cases.keySet == dy.cases.keySet)
      dx.cases.keys.foreach(k => assertSameInvariant(dx.cases(k).inv, dy.cases(k).inv, tol))
    }
  }

  test("fitted weights and bounds do not depend on partition count or row order") {
    val rows = pieceRows(1500)
    def fitOf(rs: Seq[(String, Double, Double, Double)], parts: Int) =
      Disynth.fit(spark.sparkContext.parallelize(rs, parts).toDF("g", "a", "b", "c"),
        Seq("a", "b", "c"), Seq("g"))
    val ref = fitOf(rows, 1)
    Seq(fitOf(rows, 3), fitOf(rows, 8), fitOf(rows.reverse, 4)).foreach(assertSameModel(ref, _, 1e-6))
  }

  test("doubling every row leaves the invariants unchanged") {
    val df = pieceRows(1500).toDF("g", "a", "b", "c")
    val once = Disynth.fit(df, Seq("a", "b", "c"), Seq("g"))
    val twice = Disynth.fit(df.union(df), Seq("a", "b", "c"), Seq("g"))
    assert(twice.global.n == 2 * once.global.n)
    assertSameModel(once, twice, 1e-6)
  }

  test("a 50-group fit synthesizes every branch as PcaSynth does on Moments.byGroup, bit for bit") {
    val rnd = new scala.util.Random(17)
    val df = (1 to 3000).map { i =>
      val a = rnd.nextDouble() * 10; val b = rnd.nextGaussian() * 2
      (s"g${i % 50}", a, b, (i % 50 + 1) * a - b + rnd.nextGaussian() * 0.05)
    }.toDF("g", "a", "b", "c")
    val cols = Seq("a", "b", "c")
    val model = Disynth.fit(df, cols, Seq("g"))
    val groups = Moments.byGroup(df, cols, "g")
    assert(groups.size == 50)
    val cases = model.disjunctive.head.cases
    assert(cases.keySet == groups.keySet)
    groups.foreach { case (v, mom) => assert(Reference.sameFit(cases(v), PcaSynth.simpleInvariant(mom)), v) }
    assert(Reference.sameFit(model.global, PcaSynth.simpleInvariant(Moments.of(df, cols))))
  }

  test("rows with an infinite value drop out of the fit like NaN rows") {
    val df = spark.sparkContext.parallelize(pieceRows(600), 4).toDF("g", "a", "b", "c")
    // Appended after the clean rows, which keep their partitions, so every
    // sum meets the clean rows in the same order.
    val inf = df.union(Seq(("g0", Double.PositiveInfinity, 1.0, 2.0), ("g1", 1.0, 2.0, Double.NegativeInfinity))
      .toDF("g", "a", "b", "c"))
    val cols = Seq("a", "b", "c")
    assert(Moments.of(inf, cols).n == 600)
    val (clean, dirty) = (Disynth.fit(df, cols, Seq("g")), Disynth.fit(inf, cols, Seq("g")))
    assert(dirty.global.n == 600 && dirty.disjunctive.head.cases.size == 3)
    assert(Reference.sameModel(clean, dirty))
    assert(Reference.sameModel(Disynth.fit(df, cols), Disynth.fit(inf, cols)))
  }

  test("score followed by one aggregate runs two jobs of one stage each on a cached frame") {
    val df = linearData(400).repartition(4).cache()
    try {
      df.count()
      val model = Disynth.fit(df, Seq("a", "b", "c"))
      // AQE runs the partial aggregate's shuffle map stage as its own job.
      assert(jobsAndStages(Disynth.avgViolation(df, model)) == (2, 2))
    } finally df.unpersist()
  }
}
