package repro.core

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.{Gen, Prop}
import repro.PropCheck

class InvariantSemanticsSpec extends AnyFunSuite with PropCheck {

  private def bp(w: Array[Double], lb: Double, ub: Double, alpha: Double, gamma: Double = 1.0) =
    BoundedProjection(w, lb, ub, alpha, gamma, (lb + ub) / 2, (ub - lb) / 8)

  /** [[φ]](t) of one conjunct, scored by a one-conjunct conjunction with
    * γ = 1 (whose sum is the conjunct's own term).
    */
  private def violation(phi: BoundedProjection, x: Array[Double]): Double =
    SimpleInvariant(Seq(phi.copy(gamma = 1.0))).violation(x)

  test("eta maps 0 to 0 and is bounded by 1") {
    assert(Invariant.eta(0.0) == 0.0)
    // abs() guards against the shrinker stepping outside Gen.choose's range.
    checkProp(Prop.forAll(Gen.choose(0.0, 100.0)) { z0 =>
      val z = math.abs(z0)
      // η(z) < 1 mathematically, but 1−e^(−z) rounds to 1.0 for z ≳ 37.
      Invariant.eta(z) >= 0.0 && Invariant.eta(z) <= 1.0
    })
  }

  test("eta is monotonically increasing") {
    checkProp(Prop.forAll(Gen.choose(0.0, 50.0), Gen.choose(0.0, 50.0)) { (a, b) =>
      val (lo, hi) = if (a < b) (a, b) else (b, a)
      Invariant.eta(lo) <= Invariant.eta(hi)
    })
  }

  test("violation is 0 inside the bounds and positive outside") {
    val phi = bp(Array(1.0), lb = -1.0, ub = 1.0, alpha = 1.0)
    assert(violation(phi, Array(0.0)) == 0.0)
    assert(violation(phi, Array(1.0)) == 0.0)  // boundary inclusive
    assert(violation(phi, Array(-1.0)) == 0.0)
    assert(violation(phi, Array(1.5)) > 0.0)
    assert(violation(phi, Array(-2.0)) > 0.0)
  }

  test("violation equals η(α·excess) outside the bounds") {
    val phi = bp(Array(1.0), -1.0, 1.0, alpha = 2.0)
    val v = violation(phi, Array(3.0)) // excess = 2, α·excess = 4
    assert(math.abs(v - Invariant.eta(4.0)) < 1e-12)
  }

  test("projection applies the weights (F = 2a − b)") {
    val phi = bp(Array(2.0, -1.0), -0.5, 0.5, alpha = 1.0)
    assert(violation(phi, Array(1.0, 2.0)) == 0.0)      // F = 0
    assert(violation(phi, Array(2.0, 1.0)) > 0.0)       // F = 3
  }

  test("Lemma 1: larger standardized deviation ⇒ no smaller violation") {
    // φ_k built as in §4.1.1: bounds μ±Cσ, α=1/σ. Deviation measured in σs.
    checkProp(Prop.forAll(
      Gen.choose(0.1, 5.0), Gen.choose(0.1, 5.0),
      Gen.choose(-20.0, 20.0), Gen.choose(-20.0, 20.0),
      Gen.choose(0.0, 10.0), Gen.choose(0.0, 10.0),
    ) { (s1, s2, m1, m2, d1, d2) =>
      val c = 4.0
      val phi1 = BoundedProjection(Array(1.0), m1 - c * s1, m1 + c * s1, 1 / s1, 1.0, m1, s1)
      val phi2 = BoundedProjection(Array(1.0), m2 - c * s2, m2 + c * s2, 1 / s2, 1.0, m2, s2)
      // Tuples whose standardized deviations are d1 and d2 respectively.
      val v1 = violation(phi1, Array(m1 + d1 * s1))
      val v2 = violation(phi2, Array(m2 + d2 * s2))
      if (d1 >= d2) v1 >= v2 - 1e-12 else true
    })
  }

  test("satisfied (Boolean semantics) iff violation is 0") {
    checkProp(Prop.forAll(Gen.choose(-5.0, 5.0)) { x =>
      val phi = bp(Array(1.0), -1.0, 1.0, alpha = 1.0)
      Reference.satisfied(phi, Array(x)) == (violation(phi, Array(x)) == 0.0)
    })
  }

  test("NaN input scores the maximal violation 1") {
    val phi = bp(Array(1.0), -1.0, 1.0, alpha = 1.0)
    assert(violation(phi, Array(Double.NaN)) == 1.0)
    assert(!Reference.satisfied(phi, Array(Double.NaN)))
  }

  test("conjunction is the γ-weighted sum") {
    val phi1 = bp(Array(1.0, 0.0), -1.0, 1.0, alpha = 1.0, gamma = 0.75)
    val phi2 = bp(Array(0.0, 1.0), -1.0, 1.0, alpha = 1.0, gamma = 0.25)
    val inv = SimpleInvariant(Seq(phi1, phi2))
    val x = Array(2.0, 3.0)
    val expected = 0.75 * violation(phi1, x) + 0.25 * violation(phi2, x)
    assert(math.abs(inv.violation(x) - expected) < 1e-12)
  }

  test("conjunction with normalized γ stays in [0,1]") {
    checkProp(Prop.forAll(Gen.choose(-100.0, 100.0), Gen.choose(-100.0, 100.0)) { (a, b) =>
      val inv = SimpleInvariant(Seq(
        bp(Array(1.0, 0.0), -1.0, 1.0, 1.0, 0.6),
        bp(Array(0.0, 1.0), -1.0, 1.0, 1.0, 0.4)))
      val v = inv.violation(Array(a, b))
      v >= 0.0 && v <= 1.0
    })
  }

  test("conjunction satisfied iff every conjunct satisfied") {
    val inv = SimpleInvariant(Seq(
      bp(Array(1.0, 0.0), -1.0, 1.0, 1.0, 0.5),
      bp(Array(0.0, 1.0), -1.0, 1.0, 1.0, 0.5)))
    assert(Reference.satisfiedAll(inv, Array(0.0, 0.0)))
    assert(!Reference.satisfiedAll(inv, Array(2.0, 0.0)))
    assert(!Reference.satisfiedAll(inv, Array(0.0, 2.0)))
  }

  test("empty conjunction scores 1 (no evidence of conformance)") {
    assert(SimpleInvariant(Nil).violation(Array(1.0)) == 1.0)
  }

  test("zero-σ invariant (bigAlpha): any deviation is near-maximal violation") {
    val phi = bp(Array(1.0), 5.0, 5.0, alpha = 1e9)
    assert(violation(phi, Array(5.0)) == 0.0)
    assert(violation(phi, Array(5.001)) > 0.999)
  }
}
