package repro.core

import repro.linalg.Mat

/** The §3.2 semantics written out conjunct by conjunct on the
  * [[SimpleInvariant.conjuncts]] records, independently of the model's own
  * evaluator: the reference [[ConformanceModel.violation]] must match bit
  * for bit.
  */
object Reference {

  /** [[φ]](t) = η(α·max(0, F(t)−ub, lb−F(t))), and 1 for a NaN projection. */
  def conjunct(bp: BoundedProjection, x: Array[Double]): Double = {
    val f = Mat.dot(bp.weights, x)
    if (f.isNaN) 1.0
    else Invariant.eta(bp.alpha * math.max(0.0, math.max(f - bp.ub, bp.lb - f)))
  }

  /** Boolean semantics of a conjunct: does the tuple satisfy the bounds? */
  def satisfied(bp: BoundedProjection, x: Array[Double]): Boolean = {
    val f = Mat.dot(bp.weights, x); !f.isNaN && f >= bp.lb && f <= bp.ub
  }

  /** Σ_k γ_k·[[φ_k]](t) clamped to [0,1]; an empty conjunction scores 1. */
  def simple(inv: SimpleInvariant, x: Array[Double]): Double = {
    val cs = inv.conjuncts
    if (cs.isEmpty) 1.0
    else math.min(1.0, math.max(0.0, cs.iterator.map(bp => bp.gamma * conjunct(bp, x)).sum))
  }

  /** Boolean semantics of a conjunction: every conjunct holds. */
  def satisfiedAll(inv: SimpleInvariant, x: Array[Double]): Boolean = inv.conjuncts.forall(satisfied(_, x))

  /** [[ψ_A]](t): the matching branch, or 1 for a null or unseen value. */
  def disjunctive(d: DisjunctiveInvariant, attrValue: Option[String], x: Array[Double]): Double =
    attrValue.flatMap(d.cases.get).fold(1.0)(b => simple(b.inv, x))

  def violation(model: ConformanceModel, partVals: Map[String, Option[String]], x: Array[Double]): Double =
    if (model.disjunctive.isEmpty) simple(model.global.inv, x)
    else model.disjunctive.iterator.map(d => disjunctive(d, partVals.getOrElse(d.attr, None), x)).sum /
      model.disjunctive.size

  def interventionMeans(model: ConformanceModel, partVals: Map[String, Option[String]]): Array[Double] = {
    val matched = model.disjunctive.iterator
      .flatMap(d => partVals.getOrElse(d.attr, None).flatMap(d.cases.get))
      .toSeq
    if (matched.isEmpty) model.global.means else matched.head.means
  }

  /** Bit-level equality (NaN equals NaN, 0.0 differs from −0.0). */
  def sameBits(a: Double, b: Double): Boolean =
    java.lang.Double.doubleToRawLongBits(a) == java.lang.Double.doubleToRawLongBits(b)

  private def sameBits(p: Array[Double], q: Array[Double]): Boolean =
    p.length == q.length && p.indices.forall(i => sameBits(p(i), q(i)))

  /** Same conjuncts, means and row count, bit for bit. */
  def sameFit(x: FittedSimple, y: FittedSimple): Boolean =
    x.n == y.n && sameBits(x.means, y.means) && x.inv.conjuncts.length == y.inv.conjuncts.length &&
      x.inv.conjuncts.zip(y.inv.conjuncts).forall { case (p, q) =>
        sameBits(p.weights, q.weights) &&
          sameBits(Array(p.lb, p.ub, p.alpha, p.gamma, p.mean, p.std), Array(q.lb, q.ub, q.alpha, q.gamma, q.mean, q.std))
      }

  /** Same attributes, global fit and branches, bit for bit. */
  def sameModel(x: ConformanceModel, y: ConformanceModel): Boolean =
    x.numericCols == y.numericCols && sameFit(x.global, y.global) && x.partitionAttrs == y.partitionAttrs &&
      x.disjunctive.zip(y.disjunctive).forall { case (dx, dy) =>
        dx.cases.keySet == dy.cases.keySet && dx.cases.keys.forall(k => sameFit(dx.cases(k), dy.cases(k)))
      }
}
