package repro.core

import repro.linalg.Mat

/** The paper's invariant language (§3.1) and quantitative semantics (§3.2),
  * for *simple* invariants: conjunctions of bounded linear projections.
  *
  * All classes here are small, immutable, and `Serializable`. They define
  * the semantics; evaluation runs on their flattened form,
  * [[CompiledModel]], which the scoring expression ships to the executors.
  */
object Invariant {
  /** Normalization function η(z) = 1 − e^(−z), mapping [0,∞) → [0,1). */
  def eta(z: Double): Double = 1.0 - math.exp(-z)
}

/** A linear projection F(Ā) = Āᵀw over a fixed ordering of numeric
  * attributes (the ordering lives in the enclosing model).
  *
  * @param weights projection weights; Algorithm 1 produces unit-norm vectors
  */
final case class LinearProjection(weights: Array[Double]) extends Serializable {
  /** F(t) for the numeric attribute values of a tuple. */
  def apply(x: Array[Double]): Double = Mat.dot(weights, x)
}

/** A bounded-projection invariant `lb ≤ F(Ā) ≤ ub` with its quantitative-
  * semantics parameters.
  *
  * @param proj  the linear projection F
  * @param lb    lower bound μ(F(D)) − C·σ(F(D))
  * @param ub    upper bound μ(F(D)) + C·σ(F(D))
  * @param alpha scaling factor 1/σ(F(D)) (a large constant when σ = 0)
  * @param gamma importance factor, normalized across the conjunction
  * @param mean  μ(F(D)) on the training data (kept for tests/explanations)
  * @param std   σ(F(D)) on the training data
  */
final case class BoundedProjection(
    proj: LinearProjection,
    lb: Double,
    ub: Double,
    alpha: Double,
    gamma: Double,
    mean: Double,
    std: Double,
) extends Serializable {

  /** Quantitative semantics: η(α·max(0, F(t)−ub, lb−F(t))).
    *
    * A tuple with a NaN among its numeric attributes cannot be shown to
    * conform, so it scores the maximal violation 1.
    */
  def violation(x: Array[Double]): Double = {
    val f = proj(x)
    if (f.isNaN) 1.0
    else Invariant.eta(alpha * math.max(0.0, math.max(f - ub, lb - f)))
  }

  /** Boolean semantics: does the tuple satisfy the bounds exactly? */
  def satisfied(x: Array[Double]): Boolean = {
    val f = proj(x); !f.isNaN && f >= lb && f <= ub
  }
}

/** A simple invariant: a conjunction ∧(φ₁…φ_K) of bounded projections.
  *
  * The quantitative semantics is the γ-weighted sum of the conjunct
  * violations; construction code normalizes the γ's to sum to 1, so the
  * score stays in [0,1].
  */
final case class SimpleInvariant(conjuncts: Seq[BoundedProjection]) extends Serializable {

  /** [[∧(φ₁…φ_K)]](t) = Σ_k γ_k·[[φ_k]](t); an empty conjunction carries no
    * evidence of conformance and scores 1 (it only arises for partitions the
    * synthesizer could not fit).
    */
  def violation(x: Array[Double]): Double =
    if (conjuncts.isEmpty) 1.0
    else {
      // γ's are normalized to sum to 1 up to float round-off; clamp so the
      // score honours the [0,1] contract exactly.
      val s = conjuncts.iterator.map(bp => bp.gamma * bp.violation(x)).sum
      math.min(1.0, math.max(0.0, s))
    }

  /** Boolean semantics: all conjuncts hold. */
  def satisfied(x: Array[Double]): Boolean = conjuncts.forall(_.satisfied(x))
}
