package repro.core

/** Compound invariants (§3.1's ψ_A and Ψ productions) and the full fitted
  * conformance model DISYNTH produces for a dataset.
  */

/** A simple invariant fitted to one dataset (or partition), together with
  * the statistics interventions and explanations need.
  *
  * @param inv   the conjunction of bounded projections
  * @param means training means of the numeric attributes (model ordering)
  * @param n     number of training rows behind the fit
  */
final case class FittedSimple(inv: SimpleInvariant, means: Array[Double], n: Long)
    extends Serializable {
  def violation(x: Array[Double]): Double = inv.violation(x)
}

/** A disjunctive invariant ∨((A=c₁)▷φ₁, (A=c₂)▷φ₂, …) switched on one
  * categorical attribute.
  *
  * Per §3.2, `simp(ψ, t)` is undefined when `t.A` matches no branch — e.g.
  * a category value never seen during training — and an undefined compound
  * scores the maximal violation 1 (the open-world conservatism the paper
  * contrasts with denial constraints).
  *
  * @param attr  the switching attribute A
  * @param cases branch invariants keyed by the (string-rendered) value of A
  */
final case class DisjunctiveInvariant(attr: String, cases: Map[String, FittedSimple])
    extends Serializable {

  /** [[ψ_A]](t) given t.A (None encodes SQL NULL) and the numeric values. */
  def violation(attrValue: Option[String], x: Array[Double]): Double =
    attrValue.flatMap(cases.get) match {
      case Some(branch) => branch.violation(x)
      case None         => 1.0
    }
}

/** The final invariant DISYNTH derives for a dataset (§4.2): the conjunction
  * of one disjunctive invariant per qualifying categorical attribute, or —
  * when no categorical attribute qualifies — the single global simple
  * invariant of Algorithm 1.
  *
  * @param numericCols ordering of the numeric attributes every projection
  *                    and `means` array in the model follows
  * @param global      the global simple invariant (always fitted; it is the
  *                    model when `disjunctive` is empty, and the W-PCA
  *                    baseline reuses it)
  * @param disjunctive per-categorical-attribute disjunctive invariants
  */
final case class ConformanceModel(
    numericCols: Seq[String],
    global: FittedSimple,
    disjunctive: Seq[DisjunctiveInvariant],
) extends Serializable {

  /** Attributes the compound invariants switch on. */
  def partitionAttrs: Seq[String] = disjunctive.map(_.attr)

  /** The model flattened for evaluation; built once per JVM (it is not
    * serialized with the model).
    */
  @transient lazy val compiled: CompiledModel = new CompiledModel(this)

  /** [[Φ]](t): equal-weight conjunction of the disjunctive components
    * (each component already scores within [0,1]), falling back to the
    * global simple invariant when there are none. Evaluated on
    * [[compiled]].
    *
    * @param partVals value of each partition attribute on the tuple
    * @param x        numeric attribute values in `numericCols` order
    */
  def violation(partVals: Map[String, Option[String]], x: Array[Double]): Double = {
    require(x.length == numericCols.length, "violation: length mismatch")
    compiled.violation(compiled.branchIndexes(partVals), x)
  }

  /** Intervention target for a tuple: the means of the partition the tuple
    * falls in (first disjunctive attribute with a seen value), else the
    * global training means. ExTuNe substitutes attribute values from here.
    */
  def interventionMeans(partVals: Map[String, Option[String]]): Array[Double] =
    compiled.interventionMeans(compiled.branchIndexes(partVals))
}
