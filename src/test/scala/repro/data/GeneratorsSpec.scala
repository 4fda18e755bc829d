package repro.data

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.catalyst.plans.physical.SinglePartition
import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}

class GeneratorsSpec extends SparkSpec {

  // ---------------- Airlines ----------------

  test("airlines: schema and row count") {
    val df = Airlines.flights(spark, 1000)
    assert(df.count() == 1000)
    assert(df.columns.toSet ==
      (Airlines.FeatureCols :+ Airlines.TargetCol :+ "carrier" :+ "overnight").toSet)
  }

  test("airlines: overnight flag means clock arrival earlier than departure") {
    val df = Airlines.flights(spark, 5000).cache()
    // Scheduled clocks carry ±3min jitter; check with margin via duration.
    val bad = df.filter(col("overnight") &&
      (col("arr_hour") * 60 + col("arr_min")) > (col("dep_hour") * 60 + col("dep_min")) + 20)
    assert(bad.count() < 50) // jitter can flip borderline flights only
    df.unpersist()
  }

  test("airlines: daytime flights satisfy (arr−dep) ≈ duration; overnight miss by −1440") {
    val df = Airlines.flights(spark, 20000).cache()
    val gap = (col("arr_hour") * 60 + col("arr_min")) -
      (col("dep_hour") * 60 + col("dep_min")) - col("duration")
    val dayGap = Airlines.daytime(df).agg(avg(gap)).head().getDouble(0)
    val overGap = Airlines.overnight(df).agg(avg(gap)).head().getDouble(0)
    assert(math.abs(dayGap) < 5, s"daytime gap $dayGap")
    assert(math.abs(overGap + 1440) < 10, s"overnight gap $overGap")
    df.unpersist()
  }

  test("airlines: both splits are non-trivial and overnight is roughly a third") {
    val df = Airlines.flights(spark, 20000).cache()
    val over = Airlines.overnight(df).count().toDouble / 20000
    assert(over > 0.15 && over < 0.45, s"overnight fraction $over")
    df.unpersist()
  }

  test("airlines: generation is deterministic in (rows, seed)") {
    val a = Airlines.flights(spark, 500, seed = 5).agg(sum(col("duration"))).head().getLong(0)
    val b = Airlines.flights(spark, 500, seed = 5).agg(sum(col("duration"))).head().getLong(0)
    assert(a == b)
  }

  test("airlines: carrier distribution covers all five carriers (DuckDB check)") {
    val df = Airlines.flights(spark, 5000)
    val sparkDf = df.groupBy(col("carrier")).agg(count(lit(1)).as("n"))
    Oracle.assertEquivalent(
      sparkDf,
      "SELECT carrier, count(*) AS n FROM flights GROUP BY carrier",
      "flights" -> df)
    assert(sparkDf.count() == 5)
  }

  test("airlines: mixed split hits the requested overnight fraction") {
    val df = Airlines.flights(spark, 20000).cache()
    val mixed = Airlines.mixed(Airlines.daytime(df), Airlines.overnight(df), 2.0, 17).cache()
    val frac = mixed.filter(col("overnight")).count().toDouble / mixed.count()
    assert(frac > 0.25 && frac < 0.42, s"mixed overnight fraction $frac")
    mixed.unpersist(); df.unpersist()
  }

  // ---------------- HAR ----------------

  test("har: schema, row count, and partition structure") {
    val df = Har.data(spark, 10).cache()
    assert(df.count() == 15L * 5 * 10)
    assert(df.columns.toSet == (Seq("person", "activity", "rid") ++ Har.FeatureCols).toSet)
    assert(Har.FeatureCols.size == 36)
    val counts = df.groupBy("person", "activity").count().collect()
    assert(counts.length == 75 && counts.forall(_.getLong(2) == 10))
    df.unpersist()
  }

  test("har: halves split evenly and are disjoint by rid parity") {
    val df = Har.data(spark, 10).cache()
    assert(Har.trainHalf(df).count() == 375)
    assert(Har.holdHalf(df).count() == 375)
    assert(Har.trainHalf(df).filter(col("rid") % 2 === 1).count() == 0)
    df.unpersist()
  }

  test("har: sedentary activities are tight, mobile activities wide") {
    val df = Har.data(spark, 200).cache()
    val f0 = Har.FeatureCols.head
    def stdOf(act: String): Double =
      df.filter(col("activity") === act && col("person") === "p1")
        .agg(stddev_pop(col(f0))).head().getDouble(0)
    val sed = stdOf("sitting"); val mob = stdOf("running")
    assert(mob > 4 * sed, s"sitting σ=$sed running σ=$mob")
    df.unpersist()
  }

  test("har: mobile envelope covers sedentary means (safety-envelope asymmetry)") {
    val df = Har.data(spark, 300).cache()
    val f0 = Har.FeatureCols.head
    def meanStd(act: String): (Double, Double) = {
      val r = df.filter(col("activity") === act).agg(avg(col(f0)), stddev_pop(col(f0))).head()
      (r.getDouble(0), r.getDouble(1))
    }
    val (mSit, _) = meanStd("sitting")
    val (mLie, _) = meanStd("lying")
    val (mRun, sRun) = meanStd("running")
    // Sedentary means sit inside running's ±4σ envelope.
    assert(math.abs(mSit - mRun) < 4 * sRun)
    assert(math.abs(mLie - mRun) < 4 * sRun)
    df.unpersist()
  }

  test("har: persons differ (offsets) and generation is deterministic") {
    val df = Har.data(spark, 50).cache()
    val f0 = Har.FeatureCols.head
    val m1 = df.filter(col("person") === "p1" && col("activity") === "lying")
      .agg(avg(col(f0))).head().getDouble(0)
    val m2 = df.filter(col("person") === "p2" && col("activity") === "lying")
      .agg(avg(col(f0))).head().getDouble(0)
    assert(math.abs(m1 - m2) > 0.05)
    val again = Har.data(spark, 50).filter(col("person") === "p1" && col("activity") === "lying")
      .agg(avg(col(f0))).head().getDouble(0)
    assert(m1 == again)
    df.unpersist()
  }

  test("har: person metadata marks the outliers") {
    val meta = Har.PersonMeta.toMap2
    assert(meta("p3")._1 == "Low" && meta("p8")._1 == "Low" && meta("p15")._1 == "Low")
    assert(meta("p1")._1 != "Low")
  }

  // ---------------- EVL ----------------

  test("evl: every dataset generates its windows with the right schema") {
    Evl.Datasets.foreach { name =>
      val df = Evl.window(spark, name, 1, 10, 30)
      assert(df.columns.toSeq == Seq("cls", "x", "y"), name)
      assert(df.count() > 0, name)
    }
  }

  test("evl: ground truth is 0 at window 1 and positive under drift") {
    Evl.Datasets.foreach { name =>
      assert(Evl.groundTruth(name, 1, 10) == 0.0, name)
      val later = (2 to 10).map(w => Evl.groundTruth(name, w, 10))
      assert(later.max > 0.5, s"$name never drifts: $later")
    }
  }

  test("evl: translation datasets drift monotonically; 4CR is cyclic") {
    val mono = (1 to 10).map(w => Evl.groundTruth("1CDT", w, 10))
    assert(mono.zip(mono.tail).forall { case (a, b) => a <= b + 1e-12 })
    val cyc = (1 to 10).map(w => Evl.groundTruth("4CR", w, 10))
    assert(cyc.last < 1e-9) // full rotation returns to the start
    assert(cyc(4) > cyc(1) && cyc(4) > cyc(8))
  }

  test("evl: FG-2C-2D keeps the global point cloud stable while labels rotate") {
    val w1 = Evl.window(spark, "FG-2C-2D", 1, 10, 200, seed = 1)
    val w6 = Evl.window(spark, "FG-2C-2D", 6, 10, 200, seed = 1)
    val m1 = w1.agg(avg(col("x")), avg(col("y")), stddev_pop(col("x"))).head()
    val m6 = w6.agg(avg(col("x")), avg(col("y")), stddev_pop(col("x"))).head()
    assert(math.abs(m1.getDouble(0) - m6.getDouble(0)) < 0.5)
    assert(math.abs(m1.getDouble(2) - m6.getDouble(2)) < 0.5)
    // ...but per-class means moved (A rotates from the bottom edge to the top).
    val c1 = w1.filter(col("cls") === "A").agg(avg(col("y"))).head().getDouble(0)
    val c6 = w6.filter(col("cls") === "A").agg(avg(col("y"))).head().getDouble(0)
    assert(math.abs(c1 - c6) > 1.0)
  }

  test("evl: sample means track the configured centers") {
    val df = Evl.window(spark, "1CDT", 1, 10, 500, seed = 2)
    val b = df.filter(col("cls") === "B").agg(avg(col("x")), avg(col("y"))).head()
    assert(math.abs(b.getDouble(0) - 3.0) < 0.3)
    assert(math.abs(b.getDouble(1) - 3.0) < 0.3)
  }

  test("evl: a window does not depend on how Spark slices the range") {
    val key = "spark.sql.leafNodeDefaultParallelism"
    def bits(name: String): Seq[(String, Long, Long)] =
      Evl.window(spark, name, 3, 8, 200).collect().toSeq.map { r =>
        (r.getString(0), java.lang.Double.doubleToRawLongBits(r.getDouble(1)),
          java.lang.Double.doubleToRawLongBits(r.getDouble(2)))
      }
    val prev = spark.conf.getOption(key)
    try {
      Evl.Datasets.foreach { name =>
        spark.conf.set(key, "1")
        val one = bits(name)
        spark.conf.set(key, "7")
        assert(bits(name) == one, name)
      }
    } finally prev.fold(spark.conf.unset(key))(spark.conf.set(key, _))
  }

  /** The construction `Evl.window` replaced: a union of one single-slice
    * range per mode, each mode's noise from `randn` with its own seed. Its
    * seeds and centres are literals, so every mode is a plan of its own;
    * [[interpreted]] evaluates them without compiling each.
    */
  private def referenceWindow(name: String, w: Int, nWindows: Int, pointsPerClass: Int, seed: Long): DataFrame = {
    val tau = if (nWindows <= 1) 0.0 else (w - 1).toDouble / (nWindows - 1)
    Evl.centers(name, tau).zipWithIndex.flatMap { case ((cls, modes), ci) =>
      val perMode = math.max(1, pointsPerClass / modes.size)
      modes.zipWithIndex.map { case ((cx, cy), mi) =>
        val s = seed + w * 1000 + ci * 10 + 2 * mi
        spark.range(0, perMode, 1, 1).select(
          lit(cls).as("cls"),
          (lit(cx) + randn(s) * Evl.Sigma).as("x"),
          (lit(cy) + randn(s + 1) * Evl.Sigma).as("y"))
      }
    }.reduce(_ unionAll _)
  }

  /** `body` with Spark's code generation off. */
  private def interpreted[T](body: => T): T = {
    val settings = Seq("spark.sql.codegen.wholeStage" -> "false", "spark.sql.codegen.factoryMode" -> "NO_CODEGEN")
    val saved = settings.map { case (k, _) => k -> spark.conf.getOption(k) }
    settings.foreach { case (k, v) => spark.conf.set(k, v) }
    try body
    finally saved.foreach { case (k, v) => v.fold(spark.conf.unset(k))(spark.conf.set(k, _)) }
  }

  /** Every row's values, doubles as raw bits. */
  private def rawBits(df: DataFrame): Seq[Seq[Any]] = df.collect().toSeq.map(_.toSeq.map {
    case d: Double => java.lang.Double.doubleToRawLongBits(d)
    case v => v
  })

  test("evl: windows equal the per-mode randn construction bit for bit") {
    // Every stream's first, a middle and its last window: the reference in
    // one collect, each stream's windows in one collect of `windows`, whose
    // windows are `window`'s (next test).
    val ws = Seq(1, 5, 10)
    for (seed <- Seq(23L, 23L + 7777)) {
      val ref = (for (name <- Evl.Datasets; w <- ws) yield referenceWindow(name, w, 10, 60, seed)).reduce(_ unionAll _)
      val got = Evl.Datasets.map(Evl.windows(spark, _, ws, 10, 60, seed).drop("window"))
      got.foreach(g => assert(g.schema == ref.schema))
      assert(got.flatMap(rawBits) == interpreted(rawBits(ref)), s"seed $seed")
    }
  }

  test("evl: the windows of a stream are its windows one by one, each with its window column") {
    Evl.Datasets.foreach { name =>
      val ws = Seq(2, 7, 3)
      val one = ws.map(w => Evl.window(spark, name, w, 8, 50, seed = 5).withColumn("window", lit(w))).reduce(_ unionAll _)
      val all = Evl.windows(spark, name, ws, 8, 50, seed = 5)
      assert(all.columns.toSeq == Seq("cls", "x", "y", "window"), name)
      assert(rawBits(all) == rawBits(one), name)
      assert(all.queryExecution.executedPlan.outputPartitioning == SinglePartition, name)
    }
  }

  test("evl: a class's modes draw independent noise (FG-2C-2D)") {
    val (cls, Seq((x0, y0), (x1, y1))) = Evl.centers("FG-2C-2D", 0.0).head
    val rows = Evl.window(spark, "FG-2C-2D", 1, 10, 200)
      .filter(col("cls") === cls).select("x", "y").collect()
      .map(r => (r.getDouble(0), r.getDouble(1)))
    // The modes are 8σ apart, so the nearer center names a point's mode.
    val (mode0, mode1) = rows.partition { case (x, y) =>
      math.hypot(x - x0, y - y0) < math.hypot(x - x1, y - y1)
    }
    assert(mode0.length == 100 && mode1.length == 100)
    val xOffsets1 = mode1.map(_._1 - x1)
    val recurring = mode0.map(_._2 - y0).count(dy => xOffsets1.exists(dx => math.abs(dx - dy) < 1e-9))
    assert(recurring == 0, s"$recurring of mode 0's y-offsets recur among mode 1's x-offsets")
  }

  test("evl: unknown dataset name is rejected") {
    intercept[IllegalArgumentException](Evl.centers("NOPE", 0.0))
  }

  // ---------------- LED ----------------

  test("led: schema and window size") {
    val df = Led.window(spark, 1, 500)
    assert(df.count() == 500)
    assert(df.columns.toSeq == "digit" +: Led.FeatureCols)
  }

  test("led: clean windows encode digits correctly up to 1% noise") {
    val df = Led.window(spark, 1, 4000).cache()
    // For digit 8 all segments are lit: mean of each led ≈ 0.99.
    val eights = df.filter(col("digit") === "8")
    val means = eights.agg(avg(col("led1")), avg(col("led4")), avg(col("led7"))).head()
    (0 until 3).foreach(i => assert(means.getDouble(i) > 0.95))
    // For digit 1 only segments b,c (led2, led3) are lit.
    val ones = df.filter(col("digit") === "1")
    assert(ones.agg(avg(col("led1"))).head().getDouble(0) < 0.05)
    assert(ones.agg(avg(col("led2"))).head().getDouble(0) > 0.95)
    df.unpersist()
  }

  test("led: malfunction schedule flips the scheduled segments") {
    assert(Led.malfunctioningLeds(1).isEmpty && Led.malfunctioningLeds(5).isEmpty)
    assert(Led.malfunctioningLeds(6) == Seq(4, 5) && Led.malfunctioningLeds(10) == Seq(4, 5))
    assert(Led.malfunctioningLeds(11) == Seq(1, 3))
    assert(Led.malfunctioningLeds(16) == Seq(6, 7))
    val w6 = Led.window(spark, 6, 4000)
    // led4 of digit 8 should drop to ~0.5 under 50% flips.
    val m = w6.filter(col("digit") === "8").agg(avg(col("led4")), avg(col("led1"))).head()
    assert(m.getDouble(0) > 0.35 && m.getDouble(0) < 0.65, s"malfunctioning led4 mean ${m.getDouble(0)}")
    assert(m.getDouble(1) > 0.95, s"healthy led1 mean ${m.getDouble(1)}")
  }

  test("led: digit distribution is uniform-ish (DuckDB check)") {
    val df = Led.window(spark, 1, 5000)
    val sparkDf = df.groupBy(col("digit")).agg(count(lit(1)).as("n"))
    Oracle.assertEquivalent(
      sparkDf,
      "SELECT digit, count(*) AS n FROM led GROUP BY digit",
      "led" -> df)
    val counts = sparkDf.collect().map(_.getLong(1))
    assert(counts.length == 10 && counts.min > 300)
  }

  // ---------------- Case studies ----------------

  test("cardio: diseased population shifts blood pressure strongly, others mildly") {
    val healthy = CaseStudy.cardio(spark, 3000, diseased = false)
    val sick = CaseStudy.cardio(spark, 3000, diseased = true, seed = 99)
    val h = healthy.agg(avg(col("ap_hi")), stddev_pop(col("ap_hi")), avg(col("cholesterol")),
      stddev_pop(col("cholesterol"))).head()
    val s = sick.agg(avg(col("ap_hi")), avg(col("cholesterol"))).head()
    val bpShiftSigmas = (s.getDouble(0) - h.getDouble(0)) / h.getDouble(1)
    val cholShiftSigmas = (s.getDouble(1) - h.getDouble(2)) / h.getDouble(3)
    assert(bpShiftSigmas > 4.0, s"bp shift $bpShiftSigmas σ")
    assert(cholShiftSigmas < 3.0, s"chol shift $cholShiftSigmas σ")
  }

  test("mobile: ram dominates the expensive-phone shift") {
    val cheap = CaseStudy.mobile(spark, 3000, expensive = false)
    val exp = CaseStudy.mobile(spark, 3000, expensive = true, seed = 98)
    val c = cheap.agg(avg(col("ram")), stddev_pop(col("ram")), avg(col("battery_power")),
      stddev_pop(col("battery_power"))).head()
    val e = exp.agg(avg(col("ram")), avg(col("battery_power"))).head()
    assert((e.getDouble(0) - c.getDouble(0)) / c.getDouble(1) > 6.0)
    assert((e.getDouble(1) - c.getDouble(2)) / c.getDouble(3) < 2.0)
  }

  test("house: every attribute shifts past the envelope (holistic)") {
    val cheap = CaseStudy.house(spark, 3000, expensive = false)
    val exp = CaseStudy.house(spark, 3000, expensive = true, seed = 97)
    CaseStudy.HouseCols.foreach { c =>
      val ref = cheap.agg(avg(col(c)), stddev_pop(col(c))).head()
      val shifted = exp.agg(avg(col(c))).head().getDouble(0)
      val sigmas = (shifted - ref.getDouble(0)) / ref.getDouble(1)
      assert(sigmas > 4.0, s"$c shifted only $sigmas σ")
    }
  }

  // Small extension method used above.
  private implicit class MetaOps(meta: Seq[(String, String, String, String)]) {
    def toMap2: Map[String, (String, String, String)] =
      meta.map { case (p, f, b, g) => p -> (f, b, g) }.toMap
  }
}
