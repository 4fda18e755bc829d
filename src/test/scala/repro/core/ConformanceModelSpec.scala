package repro.core

import scala.util.Random
import repro.SparkSpec

/** [[ConformanceModel]]'s own evaluation against the conjunct-by-conjunct
  * [[Reference]].
  */
class ConformanceModelSpec extends SparkSpec {

  import spark.implicits._

  /** A tuple's partition values: a known key, an unseen value, null, or
    * no entry at all.
    */
  private def partVals(rnd: Random, model: ConformanceModel): Map[String, Option[String]] =
    model.disjunctive.flatMap { d =>
      rnd.nextInt(10) match {
        case 0 => None
        case 1 | 2 => Some(d.attr -> None)
        case 3 => Some(d.attr -> Some("unseen"))
        case _ => Some(d.attr -> Some(d.cases.keys.toSeq.sorted.apply(rnd.nextInt(d.cases.size))))
      }
    }.toMap

  test("violation equals the conjunct-by-conjunct reference bit for bit on random models") {
    var floored, empty, nan, inf, conforming, partial = 0
    (1 to 80).foreach { seed =>
      val rnd = new Random(seed)
      val m = 2 + rnd.nextInt(5)
      val attrs = seed % 4 match {
        case 0 => Nil
        case 1 => Seq("g" -> Seq("a", "b", "c"))
        case 2 => Seq("g" -> Seq("a", "b"))
        case _ => Seq("g" -> Seq("a", "b", "c"), "h" -> Seq("p", "q"))
      }
      val (model, sources) = RandomModels.model(rnd, m, attrs, emptyBranch = seed % 4 == 2)
      floored += RandomModels.flooredConjuncts(model)
      (1 to 40).foreach { _ =>
        val pv = partVals(rnd, model)
        val src = pv.collectFirst { case (a, Some(v)) if sources.contains(s"$a=$v") => sources(s"$a=$v") }
          .getOrElse(sources(""))
        val x = src.draw(rnd)
        if (rnd.nextInt(3) == 0) x(rnd.nextInt(m)) += rnd.between(-30.0, 30.0)
        rnd.nextInt(10) match {
          case 0 => x(rnd.nextInt(m)) = Double.NaN; nan += 1
          case 1 => x(rnd.nextInt(m)) = if (rnd.nextBoolean()) Double.PositiveInfinity else Double.NegativeInfinity; inf += 1
          case _ =>
        }
        if (pv.get("g").flatten.contains("a") && seed % 4 == 2) empty += 1
        val got = model.violation(pv, x)
        val want = Reference.violation(model, pv, x)
        assert(Reference.sameBits(got, want), s"seed $seed: compiled $got, reference $want, pv $pv, x ${x.toSeq}")
        if (want == 0.0) conforming += 1 else if (want < 1.0) partial += 1
      }
    }
    assert(floored > 0 && empty > 0 && nan > 0 && inf > 0 && conforming > 0 && partial > 0,
      s"coverage: floored $floored empty $empty nan $nan inf $inf conforming $conforming partial $partial")
  }

  test("intervention means follow the first defined branch, as in the reference") {
    (1 to 20).foreach { seed =>
      val rnd = new Random(seed)
      val (model, _) = RandomModels.model(rnd, 3, Seq("g" -> Seq("a", "b"), "h" -> Seq("p")))
      (1 to 20).foreach { _ =>
        val pv = partVals(rnd, model)
        assert(model.interventionMeans(model.branchIndexes(pv)).sameElements(Reference.interventionMeans(model, pv)))
      }
    }
  }

  test("the model serializes without its conjunct records") {
    val (model, _) = RandomModels.model(new Random(1), 3, Seq("g" -> Seq("a", "b")))
    // Reading the conjunct records on the driver must not attach them to
    // the model that ships.
    assert((model.global +: model.disjunctive.flatMap(_.branches)).forall(_.inv.conjuncts.nonEmpty))
    val bos = new java.io.ByteArrayOutputStream()
    new java.io.ObjectOutputStream(bos).writeObject(model)
    val bytes = new String(bos.toByteArray, "ISO-8859-1")
    assert(bytes.contains("SimpleInvariant"))
    assert(!bytes.contains("BoundedProjection"))
  }

  test("the score column equals the per-row reference on null and unseen categories and null numerics") {
    val rnd = new Random(7)
    val cols = Seq("x0", "x1", "x2")
    val srcs = Map("a" -> RandomModels.source(rnd, 3), "b" -> RandomModels.source(rnd, 3))
    val train = (1 to 400).map { i =>
      val g = if (i % 2 == 0) "a" else "b"
      val x = srcs(g).draw(rnd)
      (g, if (i % 3 == 0) "p" else "q", x(0), x(1), x(2))
    }.toDF("g", "h", "x0", "x1", "x2")
    val model = Disynth.fit(train, cols, Seq("g", "h"))
    assert(model.disjunctive.size == 2)

    val gs = Seq[String]("a", "b", "zz", null)
    val test = (1 to 300).map { i =>
      val g = gs(i % 4)
      val x = srcs.getOrElse(g, srcs("a")).draw(rnd).map(v => if (rnd.nextInt(8) == 0) v + 40 else v)
      val opt = x.map(v => if (rnd.nextInt(12) == 0) None else Some(v))
      (g, if (i % 5 == 0) null else if (i % 7 == 0) "r" else "p", opt(0), opt(1), opt(2))
    }.toDF("g", "h", "x0", "x1", "x2")

    val rows = Disynth.score(test, model, "v").collect()
    assert(rows.length == 300)
    rows.foreach { r =>
      val pv = Map("g" -> Option(r.getString(0)), "h" -> Option(r.getString(1)))
      val x = Array.tabulate(3)(i => if (r.isNullAt(2 + i)) Double.NaN else r.getDouble(2 + i))
      val want = Reference.violation(model, pv, x)
      assert(Reference.sameBits(r.getDouble(5), want), s"row $r: want $want")
    }
    assert(rows.exists(_.getDouble(5) == 1.0) && rows.exists(_.getDouble(5) == 0.0))
  }

  test("the score column of a model without disjunctive invariants equals the global reference") {
    val rnd = new Random(8)
    val src = RandomModels.source(rnd, 4)
    val train = Seq.fill(300)(src.draw(rnd)).map(x => (x(0), x(1), x(2), x(3))).toDF("x0", "x1", "x2", "x3")
    val model = Disynth.fit(train, Seq("x0", "x1", "x2", "x3"))
    val test = Seq.fill(100)(src.draw(rnd).map(_ + rnd.between(-3.0, 3.0))).map(x => (x(0), x(1), x(2), x(3)))
      .toDF("x0", "x1", "x2", "x3")
    Disynth.score(test, model, "v").collect().foreach { r =>
      val x = Array.tabulate(4)(r.getDouble)
      assert(Reference.sameBits(r.getDouble(4), Reference.violation(model, Map.empty, x)))
    }
  }
}
