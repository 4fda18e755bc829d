package repro.core

import org.apache.spark.sql.DataFrame
import repro.SparkSpec
import repro.linalg.Mat
import repro.stats.Moments

class PcaSynthSpec extends SparkSpec {

  import spark.implicits._

  private def momentsOf(df: DataFrame, cols: Seq[String]): Moments = Moments.of(df, cols)

  test("exact linear dependence yields a zero-variance projection (A3 = A1 + A2)") {
    val rnd = new scala.util.Random(1)
    val df = (1 to 500).map { _ =>
      val a = rnd.nextDouble() * 10; val b = rnd.nextDouble() * 10
      (a, b, a + b)
    }.toDF("a1", "a2", "a3")
    val fitted = PcaSynth.simpleInvariant(momentsOf(df, Seq("a1", "a2", "a3")))
    val minStd = fitted.inv.conjuncts.map(_.std).min
    assert(minStd < 1e-6, s"expected ~0 min std, got $minStd")
    // The minimizing projection is ±(1,1,-1)/√3.
    val best = fitted.inv.conjuncts.minBy(_.std).weights
    val target = Array(1.0, 1.0, -1.0).map(_ / math.sqrt(3))
    val cosine = math.abs(Mat.dot(best, target))
    assert(cosine > 0.999, s"projection ${best.toSeq} not aligned with (1,1,-1)/√3")
  }

  test("affine dependence is captured via the constant column (A2 = 3·A1 + 7)") {
    val df = (1 to 300).map(i => (i.toDouble / 10, 3.0 * i / 10 + 7.0)).toDF("a1", "a2")
    val fitted = PcaSynth.simpleInvariant(momentsOf(df, Seq("a1", "a2")))
    val best = fitted.inv.conjuncts.minBy(_.std)
    assert(best.std < 1e-6)
    // F = (−3·a1 + a2)/√10 should sit at constant 7/√10.
    assert(math.abs(math.abs(best.mean) - 7.0 / math.sqrt(10)) < 1e-6)
  }

  test("Theorem 4(1): the minimum-σ projection beats random unit projections") {
    val rnd = new scala.util.Random(3)
    val df = (1 to 400).map { _ =>
      val a = rnd.nextGaussian(); val b = rnd.nextGaussian() * 2
      (a, b, a + 0.5 * b + rnd.nextGaussian() * 0.1)
    }.toDF("x", "y", "z")
    val mom = momentsOf(df, Seq("x", "y", "z"))
    val sigmaStar = PcaSynth.simpleInvariant(mom).inv.conjuncts.map(_.std).min
    (1 to 200).foreach { _ =>
      val w = Array.fill(3)(rnd.nextGaussian())
      val u = Mat.scale(w, 1.0 / Mat.norm2(w))
      assert(mom.stdOf(u) >= sigmaStar - 1e-9)
    }
  }

  test("projections are unit-norm") {
    val rnd = new scala.util.Random(5)
    val df = (1 to 200).map(_ => (rnd.nextGaussian(), rnd.nextGaussian() * 3)).toDF("a", "b")
    val fitted = PcaSynth.simpleInvariant(momentsOf(df, Seq("a", "b")))
    fitted.inv.conjuncts.foreach { bp =>
      assert(math.abs(Mat.norm2(bp.weights) - 1.0) < 1e-9)
    }
  }

  test("bounds are μ ± 4σ and α = 1/σ by default") {
    val rnd = new scala.util.Random(7)
    val df = (1 to 500).map(_ => (rnd.nextGaussian() * 2 + 5, rnd.nextGaussian())).toDF("a", "b")
    val fitted = PcaSynth.simpleInvariant(momentsOf(df, Seq("a", "b")))
    fitted.inv.conjuncts.filter(_.std > 1e-9).foreach { bp =>
      assert(math.abs(bp.lb - (bp.mean - 4 * bp.std)) < 1e-9)
      assert(math.abs(bp.ub - (bp.mean + 4 * bp.std)) < 1e-9)
      assert(math.abs(bp.alpha - 1.0 / bp.std) < 1e-9)
    }
  }

  test("importance factors are normalized and favour low-σ projections (Appendix G)") {
    val rnd = new scala.util.Random(9)
    // One tight direction (b ≈ 2a) and one wide direction.
    val df = (1 to 600).map { _ =>
      val a = rnd.nextGaussian() * 5
      (a, 2 * a + rnd.nextGaussian() * 0.05)
    }.toDF("a", "b")
    val fitted = PcaSynth.simpleInvariant(momentsOf(df, Seq("a", "b")))
    val cs = fitted.inv.conjuncts
    assert(math.abs(cs.map(_.gamma).sum - 1.0) < 1e-9)
    val lowSigma = cs.minBy(_.std); val highSigma = cs.maxBy(_.std)
    assert(lowSigma.gamma > highSigma.gamma)
    // γ_raw = 1/log(2+σ), then normalized: check the ratio.
    val expectedRatio = math.log(2 + highSigma.std) / math.log(2 + lowSigma.std)
    assert(math.abs(lowSigma.gamma / highSigma.gamma - expectedRatio) < 1e-6)
  }

  test("Theorem 4(2): distinct projections have near-zero mutual correlation") {
    // The theorem is a |D|→∞ limit (the constant components of the
    // eigenvectors converge to −μ). On centered data the limit is already
    // attained at finite n — the augmented Gram is block-diagonal and the
    // stripped projections are covariance eigenvectors, hence uncorrelated.
    val rnd = new scala.util.Random(11)
    val raw = (1 to 2000).map { _ =>
      val a = rnd.nextGaussian(); val b = rnd.nextGaussian() * 3; val c = a + b + rnd.nextGaussian() * 0.2
      (a, b, c)
    }
    val (ma, mb, mc) = (raw.map(_._1).sum / raw.size, raw.map(_._2).sum / raw.size, raw.map(_._3).sum / raw.size)
    val df = raw.map { case (a, b, c) => (a - ma, b - mb, c - mc) }.toDF("a", "b", "c")
    val mom = momentsOf(df, Seq("a", "b", "c"))
    val cs = PcaSynth.simpleInvariant(mom).inv.conjuncts
    for (i <- cs.indices; j <- cs.indices if i < j) {
      val wi = cs(i).weights; val wj = cs(j).weights
      val si = mom.stdOf(wi); val sj = mom.stdOf(wj)
      if (si > 1e-9 && sj > 1e-9) {
        val mi = mom.meanOf(wi); val mj = mom.meanOf(wj)
        // cov(Fi,Fj) = wiᵀ(G/n)wj − mi·mj
        val cross = Mat.dot(wi, mom.gram * wj) / mom.n - mi * mj
        val rho = cross / (si * sj)
        assert(math.abs(rho) < 0.25, s"projections $i,$j correlate: $rho")
      }
    }
  }

  test("Example 3: D = {(1,1),(2,2),(3,3)} gets the invariant A1 = A2") {
    val df = Seq((1.0, 1.0), (2.0, 2.0), (3.0, 3.0)).toDF("a1", "a2")
    val fitted = PcaSynth.simpleInvariant(momentsOf(df, Seq("a1", "a2")))
    val best = fitted.inv.conjuncts.minBy(_.std)
    assert(best.std < 1e-5) // Jacobi + Gram cancellation leave float dust
    // F ∝ (a1 − a2): mean 0, and the incongruous tuple (1,3) violates it.
    val cosine = math.abs(Mat.dot(best.weights, Array(1.0, -1.0).map(_ / math.sqrt(2))))
    assert(cosine > 0.999)
    assert(fitted.inv.violation(Array(1.0, 3.0)) > 0.0)
    // (10,10) stays on the combined trend: the tight conjunct is satisfied.
    assert(SimpleInvariant(Seq(best.copy(gamma = 1.0))).violation(Array(10.0, 10.0)) == 0.0)
  }

  test("number of projections is at most m+1 and at least m for full-rank data") {
    val rnd = new scala.util.Random(13)
    val df = (1 to 300).map(_ => (rnd.nextGaussian(), rnd.nextGaussian(), rnd.nextGaussian()))
      .toDF("a", "b", "c")
    val k = PcaSynth.simpleInvariant(momentsOf(df, Seq("a", "b", "c"))).inv.conjuncts.size
    assert(k >= 3 && k <= 4)
  }

  test("constant attribute produces an exact equality invariant") {
    val rnd = new scala.util.Random(15)
    val df = (1 to 100).map(_ => (rnd.nextGaussian(), 42.0)).toDF("a", "b")
    val fitted = PcaSynth.simpleInvariant(momentsOf(df, Seq("a", "b")))
    val tight = fitted.inv.conjuncts.minBy(_.std)
    assert(tight.std == 0.0)
    // α is capped by the σ floor (1e-5 · rms tuple norm) but still huge.
    assert(tight.alpha > 1000.0)
    assert(tight.ub - tight.lb < 0.1) // near-equality bounds
    // A tuple moving the constant attribute is flagged hard.
    assert(fitted.inv.violation(Array(0.0, 43.0)) > 0.2)
  }

  test("empty moments produce an (always-violated) empty invariant") {
    val df = Seq.empty[(Double, Double)].toDF("a", "b")
    val fitted = PcaSynth.simpleInvariant(momentsOf(df, Seq("a", "b")))
    assert(fitted.n == 0)
    assert(fitted.inv.violation(Array(1.0, 2.0)) == 1.0)
  }

  test("single-row dataset: every projection pins to that row's value") {
    val df = Seq((3.0, 4.0)).toDF("a", "b")
    val fitted = PcaSynth.simpleInvariant(momentsOf(df, Seq("a", "b")))
    assert(fitted.inv.violation(Array(3.0, 4.0)) < 1e-9)
    assert(fitted.inv.violation(Array(3.0, 5.0)) > 0.3)
  }

  test("training tuples have (near-)zero violation under the fitted invariant") {
    val rnd = new scala.util.Random(17)
    val rows = (1 to 500).map(_ => (rnd.nextGaussian(), rnd.nextGaussian() * 2 + 1))
    val df = rows.toDF("a", "b")
    val fitted = PcaSynth.simpleInvariant(momentsOf(df, Seq("a", "b")))
    val maxViol = rows.map { case (a, b) => fitted.inv.violation(Array(a, b)) }.max
    // ±4σ bounds: only extreme outliers can violate, and mildly.
    assert(maxViol < 0.5)
    val avgViol = rows.map { case (a, b) => fitted.inv.violation(Array(a, b)) }.sum / rows.size
    assert(avgViol < 0.01)
  }
}
