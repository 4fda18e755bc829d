package repro.core

/** The paper's invariant language (§3.1) and quantitative semantics (§3.2),
  * for *simple* invariants: conjunctions of bounded linear projections.
  *
  * A [[SimpleInvariant]] stores its conjuncts as flat primitive arrays and
  * evaluates itself with while-loops that allocate nothing per call, so
  * scoring and ExTuNe's repair trials run on the fitted model as it is.
  */
object Invariant {
  /** Normalization function η(z) = 1 − e^(−z), mapping [0,∞) → [0,1). */
  def eta(z: Double): Double = 1.0 - math.exp(-z)
}

/** A bounded-projection invariant `lb ≤ F(Ā) ≤ ub`, F(Ā) = Āᵀw over the
  * model's ordering of numeric attributes, with its quantitative-semantics
  * parameters. Data only: the enclosing [[SimpleInvariant]] evaluates it.
  *
  * @param weights projection weights w; Algorithm 1 produces unit-norm vectors
  * @param lb      lower bound μ(F(D)) − C·σ(F(D))
  * @param ub      upper bound μ(F(D)) + C·σ(F(D))
  * @param alpha   scaling factor 1/σ(F(D)) (a large constant when σ = 0)
  * @param gamma   importance factor, normalized across the conjunction
  * @param mean    μ(F(D)) on the training data (kept for tests/explanations)
  * @param std     σ(F(D)) on the training data
  */
final case class BoundedProjection(
    weights: Array[Double],
    lb: Double,
    ub: Double,
    alpha: Double,
    gamma: Double,
    mean: Double,
    std: Double,
)

/** A simple invariant: a conjunction ∧(φ₁…φ_K) of bounded projections,
  * stored as flat arrays (one entry per conjunct, the weights row-major).
  *
  * The quantitative semantics is the γ-weighted sum of the conjunct
  * violations η(α·max(0, F(t)−ub, lb−F(t))); construction code normalizes
  * the γ's to sum to 1, and the sum is clamped to [0,1]. A NaN projection
  * (a tuple with a NaN attribute cannot be shown to conform) makes its
  * conjunct score the maximal 1. An empty conjunction carries no evidence
  * of conformance and scores 1 (it only arises for partitions the
  * synthesizer could not fit).
  *
  * @param k number of conjuncts K
  * @param m number of numeric attributes (0 when K = 0)
  * @param w row-major K×m projection weights
  */
final class SimpleInvariant private (
    val k: Int,
    val m: Int,
    w: Array[Double],
    lb: Array[Double],
    ub: Array[Double],
    alpha: Array[Double],
    gamma: Array[Double],
    mean: Array[Double],
    std: Array[Double],
) extends Serializable {

  /** The conjuncts as records, rebuilt on each call so that they never ship
    * with the invariant.
    */
  def conjuncts: IndexedSeq[BoundedProjection] = IndexedSeq.tabulate(k) { c =>
    BoundedProjection(java.util.Arrays.copyOfRange(w, c * m, c * m + m), lb(c), ub(c), alpha(c), gamma(c), mean(c), std(c))
  }

  /** γ_k·[[φ_k]] for a projection value. Inside the bounds the excess is 0
    * and, α being finite, the term is exactly 0, so `exp` is skipped; a NaN
    * projection (or bound) still takes the full path.
    */
  @inline private def term(c: Int, f: Double): Double =
    if (f.isNaN) gamma(c) * 1.0
    else {
      val excess = math.max(0.0, math.max(f - ub(c), lb(c) - f))
      if (excess == 0.0) 0.0 else gamma(c) * Invariant.eta(alpha(c) * excess)
    }

  // γ's are normalized to sum to 1 up to float round-off; clamp so the
  // score honours the [0,1] contract exactly.
  @inline private def clamp(s: Double): Double = math.min(1.0, math.max(0.0, s))

  /** [[∧(φ₁…φ_K)]](t) = Σ_k γ_k·[[φ_k]](t), clamped to [0,1]. Projections
    * accumulate over the attributes in order and the terms add up in
    * conjunct order.
    */
  def violation(x: Array[Double]): Double = project(x, null)

  /** [[violation]] of `x` that also writes F_k(x) for every conjunct into
    * `f` (length ≥ K), unless `f` is null.
    */
  def project(x: Array[Double], f: Array[Double]): Double =
    if (k == 0) 1.0
    else {
      var s = 0.0; var c = 0
      while (c < k) {
        var p = 0.0; var i = 0; val row = c * m
        while (i < m) { p += w(row + i) * x(i); i += 1 }
        if (f != null) f(c) = p
        s += term(c, p)
        c += 1
      }
      clamp(s)
    }

  /** The violation after attribute `j` moves by `delta`, from the current
    * projections `f`: each F_k shifts by w_kj·delta, so this is O(K). Exact
    * up to rounding in the shift.
    *
    * Summing stops as soon as the partial sum reaches `cap`. This is exact
    * for a caller that only asks whether the violation is strictly below a
    * `cap` ≤ 1: every term γ_k·η(·) is ≥ 0 (the factory rejects a negative
    * γ or α), rounded prefix sums of non-negative terms never decrease, and
    * `clamp` is monotone, so the full violation would be ≥ `cap` too, and so
    * is the value returned. With `cap = +∞` the result is the full violation.
    */
  def violationShifted(f: Array[Double], j: Int, delta: Double, cap: Double): Double =
    if (k == 0) 1.0
    else {
      var s = 0.0; var c = 0
      while (c < k && s < cap) { s += term(c, f(c) + w(c * m + j) * delta); c += 1 }
      clamp(s)
    }
}

object SimpleInvariant {

  /** The conjunction of `conjuncts`, all over the same attributes. */
  def apply(conjuncts: Seq[BoundedProjection]): SimpleInvariant = {
    val cs = conjuncts.toArray
    val m = if (cs.isEmpty) 0 else cs(0).weights.length
    val w = new Array[Double](cs.length * m)
    cs.indices.foreach { c =>
      val wc = cs(c).weights
      require(wc.length == m, s"SimpleInvariant: projection over ${wc.length} attributes, conjunct 0 over $m")
      System.arraycopy(wc, 0, w, c * m, m)
    }
    // No negative γ or α keeps every conjunct term ≥ 0 (or NaN), which the
    // early stop of violationShifted relies on; Algorithm 1 only makes such.
    require(!cs.exists(bp => bp.gamma < 0 || bp.alpha < 0), "SimpleInvariant: negative γ or α")
    new SimpleInvariant(cs.length, m, w, cs.map(_.lb), cs.map(_.ub), cs.map(_.alpha), cs.map(_.gamma),
      cs.map(_.mean), cs.map(_.std))
  }
}
