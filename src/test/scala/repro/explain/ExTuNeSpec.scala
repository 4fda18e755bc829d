package repro.explain

import java.util.concurrent.{Callable, CyclicBarrier, Executors}
import scala.jdk.CollectionConverters._
import scala.util.Random
import org.apache.spark.sql.Row
import org.apache.spark.sql.types.{DoubleType, StringType, StructField, StructType}
import repro.{JobCounts, SparkSpec}
import repro.core._

class ExTuNeSpec extends SparkSpec with JobCounts {

  import spark.implicits._

  private def train2d(n: Int = 500, seed: Int = 1) = {
    val rnd = new scala.util.Random(seed)
    (1 to n).map(_ => (rnd.nextGaussian(), rnd.nextGaussian())).toDF("a", "b")
  }

  test("conforming tuple gets zero responsibility everywhere") {
    val model = Disynth.fit(train2d(), Seq("a", "b"))
    val resp = ExTuNe.tupleResponsibility(model, Map.empty, Array(0.1, -0.2))
    assert(resp.forall(_ == 0.0))
  }

  test("single violating attribute carries responsibility 1, others 1/2") {
    val model = Disynth.fit(train2d(), Seq("a", "b"))
    // a is 20σ off, b typical: fixing a alone conforms (K=0 → resp 1);
    // fixing b first still needs a (K=1 → resp 1/2).
    val resp = ExTuNe.tupleResponsibility(model, Map.empty, Array(20.0, 0.0))
    assert(resp(0) == 1.0, s"resp=${resp.toSeq}")
    assert(resp(1) == 0.5, s"resp=${resp.toSeq}")
  }

  test("two violating attributes: each needs one more fix (resp 1/2), bystander needs two (1/3)") {
    val rnd = new scala.util.Random(2)
    val df = (1 to 500).map(_ => (rnd.nextGaussian(), rnd.nextGaussian(), rnd.nextGaussian()))
      .toDF("a", "b", "c")
    val model = Disynth.fit(df, Seq("a", "b", "c"))
    val resp = ExTuNe.tupleResponsibility(model, Map.empty, Array(20.0, -20.0, 0.0))
    assert(resp(0) == 0.5 && resp(1) == 0.5, s"resp=${resp.toSeq}")
    assert(math.abs(resp(2) - 1.0 / 3) < 1e-12, s"resp=${resp.toSeq}")
  }

  test("aggregate averages responsibilities and ranks the planted cause first") {
    val rnd = new scala.util.Random(3)
    val train = (1 to 600).map(_ => (rnd.nextGaussian(), rnd.nextGaussian())).toDF("a", "b")
    val model = Disynth.fit(train, Seq("a", "b"))
    val test = (1 to 100).map(_ => (15.0 + rnd.nextGaussian(), rnd.nextGaussian())).toDF("a", "b")
    val agg = ExTuNe.aggregate(test, model)
    val m = agg.toMap
    assert(m("a") > m("b"))
    assert(m("a") > 0.9)
  }

  test("disjunctive model: intervention uses the partition's means") {
    // Partition g=hi sits at 100, g=lo at 0. A g=hi tuple with one bad attr
    // must be repaired toward 100 (the partition mean), not the global ~50.
    val rnd = new scala.util.Random(4)
    val rows =
      (1 to 300).map(_ => ("hi", 100 + rnd.nextGaussian(), 100 + rnd.nextGaussian())) ++
      (1 to 300).map(_ => ("lo", rnd.nextGaussian(), rnd.nextGaussian()))
    val df = rows.toDF("g", "a", "b")
    val model = Disynth.fit(df, Seq("a", "b"), Seq("g"))
    val resp = ExTuNe.tupleResponsibility(model, Map("g" -> Some("hi")), Array(50.0, 100.0))
    assert(resp(0) == 1.0, s"resp=${resp.toSeq}")
    assert(resp(1) == 0.5, s"resp=${resp.toSeq}")
  }

  test("unseen partition value: nothing explains the violation, all responsibilities 0") {
    val df = Seq(("g1", 1.0), ("g1", 2.0), ("g1", 3.0)).toDF("g", "x")
    val model = Disynth.fit(df, Seq("x"), Seq("g"))
    val resp = ExTuNe.tupleResponsibility(model, Map("g" -> Some("g9")), Array(2.0))
    assert(resp.forall(_ == 0.0))
  }

  test("aggregate rejects empty input") {
    val df = Seq.empty[(Double, Double)].toDF("a", "b")
    val model = Disynth.fit(train2d(), Seq("a", "b"))
    intercept[IllegalArgumentException](ExTuNe.aggregate(df, model))
  }

  test("aggregate rejects a sample size that is not positive") {
    val model = Disynth.fit(train2d(), Seq("a", "b"))
    Seq(0, -1).foreach { n =>
      val e = intercept[IllegalArgumentException](ExTuNe.aggregate(train2d(), model, n))
      assert(e.getMessage.contains("maxTuples"), e.getMessage)
    }
  }

  test("responsibilities equal the naive greedy on random models and tuples") {
    var multiRound, partition, unseen, conforming, nan, inf = 0
    (1 to 60).foreach { seed =>
      val rnd = new Random(seed)
      val m = 3 + rnd.nextInt(4)
      val attrs = seed % 3 match {
        case 0 => Nil
        case 1 => Seq("g" -> Seq("a", "b", "c"))
        case _ => Seq("g" -> Seq("a", "b"), "h" -> Seq("p", "q"))
      }
      val (model, sources) = RandomModels.model(rnd, m, attrs)
      (1 to 15).foreach { _ =>
        val pv: Map[String, Option[String]] = attrs.map { case (a, keys) =>
          a -> (if (rnd.nextInt(8) == 0) Some("unseen") else Some(keys(rnd.nextInt(keys.size))))
        }.toMap
        val src = attrs.headOption.flatMap { case (a, _) => pv(a).flatMap(v => sources.get(s"$a=$v")) }
          .getOrElse(sources(""))
        val x = src.draw(rnd)
        val shifted = rnd.nextInt(4)
        rnd.shuffle((0 until m).toList).take(shifted).foreach(i => x(i) += rnd.between(20.0, 60.0) * (if (rnd.nextBoolean()) 1 else -1))
        rnd.nextInt(10) match {
          case 0 => x(rnd.nextInt(m)) = Double.NaN; nan += 1
          case 1 => x(rnd.nextInt(m)) = if (rnd.nextBoolean()) Double.PositiveInfinity else Double.NegativeInfinity; inf += 1
          case _ =>
        }

        val got = ExTuNe.tupleResponsibility(model, pv, x)
        val want = GreedyOracle.tupleResponsibility(model, pv, x)
        assert(got.sameElements(want), s"seed $seed pv $pv x ${x.toSeq}: got ${got.toSeq}, want ${want.toSeq}")

        val v = Reference.violation(model, pv, x)
        if (v <= ExTuNe.ConformEps) { conforming += 1; assert(got.forall(_ == 0.0)) }
        if (pv.values.exists(_.contains("unseen"))) { unseen += 1; assert(got.forall(_ == 0.0)) }
        else if (attrs.nonEmpty && v > ExTuNe.ConformEps) partition += 1
        if (got.exists(r => r > 0 && r < 0.5)) multiRound += 1
      }
    }
    assert(multiRound > 0 && partition > 0 && unseen > 0 && conforming > 0 && nan > 0 && inf > 0,
      s"coverage: multiRound $multiRound partition $partition unseen $unseen conforming $conforming nan $nan inf $inf")
  }

  test("exact tie: the lowest-index attribute is substituted first") {
    // One conjunct F = b + c + d within ±1 and α large enough that every
    // violated trial scores exactly 1: b, c and d are symmetric and equally
    // far off, and a, which F ignores, ties with them. Substituting the
    // lowest index first wastes a step on a whenever a is left, so every
    // start needs all three fixes after it (1/4); breaking ties towards the
    // highest index would give starts b, c and d 1/3.
    val bp = BoundedProjection(Array(0.0, 1.0, 1.0, 1.0), -1.0, 1.0,
      alpha = 100.0, gamma = 1.0, mean = 0.0, std = 0.25)
    val model = ConformanceModel(Seq("a", "b", "c", "d"),
      FittedSimple(SimpleInvariant(Seq(bp)), Array(0.0, 0.0, 0.0, 0.0), 10L), Nil)
    val x = Array(5.0, 5.0, 5.0, 5.0)
    assert(ExTuNe.tupleResponsibility(model, Map.empty, x).toSeq == Seq(0.25, 0.25, 0.25, 0.25))
    assert(GreedyOracle.tupleResponsibility(model, Map.empty, x).toSeq == Seq(0.25, 0.25, 0.25, 0.25))
  }

  /** A model whose disjunctive attributes `d0`, `d1`, … each have keys "a"
    * and "b", where key c's branch of every attribute is fitted on c's
    * source (separate draws). A tuple of that source is then close to all
    * of its components at once, so every component can reach 0.
    */
  private def sharedSourceModel(rnd: Random, m: Int, nAttrs: Int)
      : (ConformanceModel, Map[String, RandomModels.Source]) = {
    val cols = (0 until m).map(i => s"x$i")
    val sources = Seq("a", "b").map(_ -> RandomModels.source(rnd, m)).toMap
    val disjunctive = (0 until nAttrs).map { a =>
      DisjunctiveInvariant(s"d$a", Seq("a", "b").map(c => c -> RandomModels.fitted(rnd, sources(c), cols)).toMap)
    }
    (ConformanceModel(cols, RandomModels.fitted(rnd, sources("a"), cols), disjunctive), sources)
  }

  /** A tuple for [[sharedSourceModel]] with two attributes: each category
    * is sometimes null or unseen, an attribute is sometimes NaN or ±∞, and
    * up to two attributes are shifted, so about a third of the clean tuples
    * conform.
    */
  private def messyTuple(rnd: Random, m: Int, sources: Map[String, RandomModels.Source])
      : (Map[String, Option[String]], Array[Double]) = {
    val key = if (rnd.nextBoolean()) "a" else "b"
    def category(): Option[String] = rnd.nextInt(10) match {
      case 0 => None
      case 1 => Some("unseen")
      case _ => Some(key)
    }
    val pv = Map("d0" -> category(), "d1" -> category())
    val x = sources(key).draw(rnd)
    rnd.shuffle((0 until m).toList).take(rnd.nextInt(3))
      .foreach(i => x(i) += rnd.between(5.0, 40.0) * (if (rnd.nextBoolean()) 1 else -1))
    rnd.nextInt(10) match {
      case 0 => x(rnd.nextInt(m)) = Double.NaN
      case 1 => x(rnd.nextInt(m)) = if (rnd.nextBoolean()) Double.PositiveInfinity else Double.NegativeInfinity
      case _ =>
    }
    (pv, x)
  }

  private def bits(a: Array[Double]): Seq[Long] = a.toSeq.map(java.lang.Double.doubleToRawLongBits)

  test("aggregate equals the sample-order mean of the serial repair, bit for bit") {
    val m = 6
    val rnd = new Random(11)
    val (model, sources) = sharedSourceModel(rnd, m, 2)
    // Every other NaN goes in as a null, which aggregate also reads as NaN.
    val rows = (0 until 360).map { t =>
      val (pv, x) = messyTuple(rnd, m, sources)
      Row.fromSeq(pv("d0").orNull +: pv("d1").orNull +: x.toSeq.map(v => if (v.isNaN && t % 2 == 0) null else v))
    }
    val schema = StructType(Seq("d0", "d1").map(StructField(_, StringType)) ++
      model.numericCols.map(StructField(_, DoubleType)))
    val df = spark.createDataFrame(rows.asJava, schema)
    val n = 300
    assert(model.partitionAttrs == Seq("d0", "d1"))

    val sample = df.select(ScoreExpr.inputs(model): _*).limit(n).collect()
    assert(sample.length == n)
    var conforming, nullCat, unseen, nan, inf, multiRound = 0
    val sums = new Array[Double](m)
    sample.foreach { r =>
      val x = Array.tabulate(m)(i => if (r.isNullAt(i)) Double.NaN else r.getDouble(i))
      val pv = model.partitionAttrs.indices.map(a => model.partitionAttrs(a) -> Option(r.getString(m + a))).toMap
      val resp = ExTuNe.tupleResponsibility(model, pv, x)
      (0 until m).foreach(i => sums(i) += resp(i))
      if (model.violation(pv, x) <= ExTuNe.ConformEps) conforming += 1
      if (pv.values.exists(_.isEmpty)) nullCat += 1
      if (pv.values.exists(_.contains("unseen"))) unseen += 1
      if (x.exists(_.isNaN)) nan += 1
      if (x.exists(_.isInfinite)) inf += 1
      if (resp.exists(r => r > 0 && r < 0.5)) multiRound += 1
    }
    val want = sums.map(_ / n)

    val got = ExTuNe.aggregate(df, model, n)
    assert(got.map(_._1) == model.numericCols)
    assert(bits(got.map(_._2).toArray) == bits(want), s"got ${got.map(_._2)}, want ${want.toSeq}")
    assert(conforming > 0 && nullCat > 0 && unseen > 0 && nan > 0 && inf > 0 && multiRound > 0,
      s"coverage: conforming $conforming nullCat $nullCat unseen $unseen nan $nan inf $inf multiRound $multiRound")
  }

  test("a deserialized model shared by 8 threads gives the single-threaded bits") {
    val m = 6
    val rnd = new Random(12)
    val (model, sources) = sharedSourceModel(rnd, m, 2)
    val tuples = IndexedSeq.fill(200)(messyTuple(rnd, m, sources))
    def run(mdl: ConformanceModel, from: Int): IndexedSeq[(Seq[Int], Seq[Long])] =
      tuples.indices.map { i =>
        val (pv, x) = tuples((from + i) % tuples.size)
        (mdl.branchIndexes(pv).toSeq, bits(ExTuNe.tupleResponsibility(mdl, pv, x)))
      }
    val want = run(model, 0)

    // A deserialized copy starts with its branch lookups unbuilt, so the
    // threads race to build them; each starts at its own tuple.
    val bos = new java.io.ByteArrayOutputStream()
    new java.io.ObjectOutputStream(bos).writeObject(model)
    val shared = new java.io.ObjectInputStream(new java.io.ByteArrayInputStream(bos.toByteArray))
      .readObject().asInstanceOf[ConformanceModel]
    val threads = 8
    val barrier = new CyclicBarrier(threads)
    val pool = Executors.newFixedThreadPool(threads)
    try {
      val results = pool.invokeAll((0 until threads).map { th =>
        new Callable[IndexedSeq[(Seq[Int], Seq[Long])]] {
          def call() = { barrier.await(); run(shared, th * 25) }
        }
      }.asJava).asScala.map(_.get())
      results.zipWithIndex.foreach { case (got, th) =>
        val rotated = want.drop(th * 25) ++ want.take(th * 25)
        assert(got == rotated, s"thread $th")
      }
    } finally pool.shutdown()
  }

  test("responsibilities equal the naive greedy on larger models with one or two disjunctive attributes") {
    var multiRound, twoViolating = 0
    (1 to 40).foreach { seed =>
      val rnd = new Random(100 + seed)
      val m = 6 + rnd.nextInt(7)
      val nAttrs = 1 + seed % 2
      val (model, sources) = sharedSourceModel(rnd, m, nAttrs)
      (1 to 8).foreach { _ =>
        val key = if (rnd.nextBoolean()) "a" else "b"
        // The second attribute mostly agrees with the first, so both
        // components matter; sometimes it points at the other source.
        val pv: Map[String, Option[String]] = (0 until nAttrs).map { a =>
          s"d$a" -> Some(if (a == 0 || rnd.nextInt(4) > 0) key else if (key == "a") "b" else "a")
        }.toMap
        val x = sources(key).draw(rnd)
        rnd.shuffle((0 until m).toList).take(1 + rnd.nextInt(4))
          .foreach(i => x(i) += rnd.between(5.0, 40.0) * (if (rnd.nextBoolean()) 1 else -1))

        val got = ExTuNe.tupleResponsibility(model, pv, x)
        val want = GreedyOracle.tupleResponsibility(model, pv, x)
        assert(got.map(java.lang.Double.doubleToRawLongBits).sameElements(want.map(java.lang.Double.doubleToRawLongBits)),
          s"seed $seed m $m pv $pv x ${x.toSeq}: got ${got.toSeq}, want ${want.toSeq}")
        if (got.exists(r => r > 0 && r < 1.0 / 3)) multiRound += 1
        if (nAttrs == 2 && Reference.violation(model, pv, x) > ExTuNe.ConformEps) twoViolating += 1
      }
    }
    assert(multiRound > 0 && twoViolating > 0, s"coverage: multiRound $multiRound twoViolating $twoViolating")
  }

  test("two shifts a branch weighs with opposite signs: the long repair equals the naive greedy") {
    // x0 and x1 follow their own latent factor almost exactly, so the
    // branch holds a tight conjunct that weighs them with opposite signs.
    // Both move by +30 together: substituting either one alone breaks that
    // conjunct, so a repair that starts at a bystander first walks through
    // every other bystander, whose trials leave the violation as is, and
    // needs all m − 1 fixes (1/m). x0 and x1 each need only the other (1/2).
    val m = 8
    val cols = (0 until m).map(i => s"x$i")
    val mix = Array.tabulate(m, 4)((i, r) => if (r == (if (i < 2) 0 else 1 + i % 3)) 1.0 else 0.0)
    val noise = Array.tabulate(m)(i => if (i < 2) 0.01 else 0.5)
    val src = RandomModels.Source(Array.tabulate(m)(i => 10.0 * i), mix, noise)
    val rnd = new Random(7)
    val branch = RandomModels.fitted(rnd, src, cols, n = 400)
    val model = ConformanceModel(cols, branch, Seq(DisjunctiveInvariant("g", Map("hi" -> branch))))
    val pv = Map("g" -> Some("hi"))
    (1 to 5).foreach { _ =>
      val x = src.draw(rnd)
      x(0) += 30.0; x(1) += 30.0
      val got = ExTuNe.tupleResponsibility(model, pv, x)
      assert(got.sameElements(GreedyOracle.tupleResponsibility(model, pv, x)), s"got ${got.toSeq}")
      assert(got(0) == 0.5 && got(1) == 0.5 && got.drop(2).forall(_ == 1.0 / m), s"got ${got.toSeq}")
    }
  }

  test("two later trials both reach violation 0: the lowest index is substituted") {
    // One conjunct F = q + r + s within ±1 (α = 1), means 0, tuple
    // (p, q, r, s) = (3, −5, 5, 5). Starting from p, the first trial (q)
    // gives F = 10, then r and s each give F = 0: r, the lower index, must
    // win although s ties it at 0, and p needs one more fix (1/2). From q,
    // r and s tie at η(4); r is taken, then s conforms (1/3). r and s alone
    // conform (1). With two identical components the trials are the same.
    val bp = BoundedProjection(Array(0.0, 1.0, 1.0, 1.0), -1.0, 1.0,
      alpha = 1.0, gamma = 1.0, mean = 0.0, std = 0.25)
    val fs = FittedSimple(SimpleInvariant(Seq(bp)), Array(0.0, 0.0, 0.0, 0.0), 10L)
    val cols = Seq("p", "q", "r", "s")
    val x = Array(3.0, -5.0, 5.0, 5.0)
    val want = Seq(0.5, 1.0 / 3, 1.0, 1.0)
    val one = ConformanceModel(cols, fs, Nil)
    assert(ExTuNe.tupleResponsibility(one, Map.empty, x).toSeq == want)
    assert(GreedyOracle.tupleResponsibility(one, Map.empty, x).toSeq == want)
    val two = ConformanceModel(cols, fs,
      Seq(DisjunctiveInvariant("g", Map("k" -> fs)), DisjunctiveInvariant("h", Map("k" -> fs))))
    val pv = Map("g" -> Some("k"), "h" -> Some("k"))
    assert(ExTuNe.tupleResponsibility(two, pv, x).toSeq == want)
    assert(GreedyOracle.tupleResponsibility(two, pv, x).toSeq == want)
  }

  test("aggregate runs one job with no shuffle stage on a cached frame") {
    val rnd = new Random(6)
    val df = (1 to 400).map(_ => (15.0 + rnd.nextGaussian(), rnd.nextGaussian())).toDF("a", "b")
      .repartition(4).cache()
    try {
      df.count()
      val model = Disynth.fit(train2d(), Seq("a", "b"))
      assert(jobsAndStages(ExTuNe.aggregate(df, model)) == (1, 1))
    } finally df.unpersist()
  }
}
