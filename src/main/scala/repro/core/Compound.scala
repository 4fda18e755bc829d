package repro.core

import org.apache.spark.unsafe.types.UTF8String

/** Compound invariants (§3.1's ψ_A and Ψ productions) and the full fitted
  * conformance model DISYNTH produces for a dataset.
  */

/** A fitted model's score of one tuple, the one scoring path of every model:
  * [[ScoreExpr]] evaluates `scoreAt` on each row, with `x` its `numericCols`
  * (null read as NaN) and `idx` the [[branchIndex]] of each of its
  * `partitionAttrs`. NaN means the tuple has no score.
  */
trait TupleScore extends Serializable {
  def numericCols: Seq[String]
  def partitionAttrs: Seq[String] = Nil
  def branchIndex(a: Int, v: UTF8String): Int = -1
  def scoreAt(idx: Array[Int], x: Array[Double]): Double
}

/** A simple invariant fitted to one dataset (or partition), together with
  * the statistics interventions and explanations need.
  *
  * @param inv   the conjunction of bounded projections
  * @param means training means of the numeric attributes (model ordering)
  * @param n     number of training rows behind the fit
  */
final case class FittedSimple(inv: SimpleInvariant, means: Array[Double], n: Long) {
  require(inv.k == 0 || inv.m == means.length,
    s"FittedSimple: projections over ${inv.m} attributes, ${means.length} means")
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
final case class DisjunctiveInvariant(attr: String, cases: Map[String, FittedSimple]) {

  private val keys: Array[String] = cases.keys.toArray.sorted

  /** The branches in sorted key order; a value's branch index points here. */
  val branches: Array[FittedSimple] = keys.map(cases)

  /** Key → branch index; built on first use in each deserialized copy, so
    * it is never shipped.
    */
  @transient private lazy val lookup: java.util.HashMap[UTF8String, Integer] = {
    val h = new java.util.HashMap[UTF8String, Integer](keys.length * 2)
    keys.indices.foreach(i => h.put(UTF8String.fromString(keys(i)), i))
    h
  }

  /** Branch index of A's value `v` (−1: null or unseen). */
  def branchIndex(v: UTF8String): Int =
    if (v == null) -1
    else {
      val i = lookup.get(v)
      if (i == null) -1 else i
    }
}

/** The final invariant DISYNTH derives for a dataset (§4.2): the conjunction
  * of one disjunctive invariant per qualifying categorical attribute, or —
  * when no categorical attribute qualifies — the single global simple
  * invariant of Algorithm 1.
  *
  * A tuple's categorical values enter the index-form methods as one branch
  * index per disjunctive attribute ([[branchIndex]]), −1 for a null or
  * unseen value.
  *
  * @param numericCols ordering of the numeric attributes every projection
  *                    and `means` array in the model follows
  * @param global      the global simple invariant (always fitted; it is the
  *                    model when `disjunctive` is empty)
  * @param disjunctive per-categorical-attribute disjunctive invariants
  */
final case class ConformanceModel(
    numericCols: Seq[String],
    global: FittedSimple,
    disjunctive: Seq[DisjunctiveInvariant],
) extends TupleScore {

  private val parts: Array[DisjunctiveInvariant] = disjunctive.toArray

  /** Attributes the compound invariants switch on. */
  override def partitionAttrs: Seq[String] = disjunctive.map(_.attr)

  /** Branch index of disjunctive attribute `a`'s value `v` (−1: null or
    * unseen).
    */
  override def branchIndex(a: Int, v: UTF8String): Int = parts(a).branchIndex(v)

  /** Branch index of each disjunctive attribute's value (−1: null, unseen
    * or absent from the map).
    */
  def branchIndexes(partVals: Map[String, Option[String]]): Array[Int] =
    Array.tabulate(parts.length)(a =>
      parts(a).branchIndex(UTF8String.fromString(partVals.getOrElse(parts(a).attr, None).orNull)))

  /** [[Φ]](t): equal-weight conjunction of the disjunctive components in
    * attribute order (each already scores within [0,1], an undefined one
    * 1), falling back to the global simple invariant when there are none.
    *
    * @param idx branch index of each disjunctive attribute
    * @param x   numeric attribute values in `numericCols` order
    */
  def violationAt(idx: Array[Int], x: Array[Double]): Double =
    if (parts.isEmpty) global.inv.violation(x)
    else {
      var s = 0.0; var a = 0
      while (a < parts.length) {
        s += (if (idx(a) < 0) 1.0 else parts(a).branches(idx(a)).inv.violation(x))
        a += 1
      }
      s / parts.length
    }

  /** [[violationAt]], the model's score. */
  def scoreAt(idx: Array[Int], x: Array[Double]): Double = violationAt(idx, x)

  /** [[violationAt]] of a tuple given as each partition attribute's value. */
  def violation(partVals: Map[String, Option[String]], x: Array[Double]): Double = {
    require(x.length == numericCols.length, "violation: length mismatch")
    violationAt(branchIndexes(partVals), x)
  }

  /** The simple invariants a tuple's violation averages over, in attribute
    * order: its branch per disjunctive attribute (null where undefined),
    * or the global invariant alone. Averaging these reproduces
    * [[violationAt]] exactly, the global case included (x/1 = x).
    */
  def components(idx: Array[Int]): Array[SimpleInvariant] =
    if (parts.isEmpty) Array(global.inv)
    else Array.tabulate(parts.length)(a => if (idx(a) < 0) null else parts(a).branches(idx(a)).inv)

  /** Intervention target for a tuple: the means of the partition the tuple
    * falls in (first disjunctive attribute with a seen value), else the
    * global training means. ExTuNe substitutes attribute values from here.
    */
  def interventionMeans(idx: Array[Int]): Array[Double] = {
    val a = idx.indexWhere(_ >= 0)
    if (a < 0) global.means else parts(a).branches(idx(a)).means
  }
}
