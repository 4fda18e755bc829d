package repro.core

import org.apache.spark.unsafe.types.UTF8String

/** The evaluation form of a fitted model: the case-class tree of
  * [[Invariant.scala]] and [[Compound.scala]] flattened once into primitive
  * arrays, so scoring and ExTuNe's repair trials run as while-loops with no
  * per-call allocation.
  *
  * Every result is bit-identical to the §3.2 semantics of
  * [[SimpleInvariant.violation]] and [[DisjunctiveInvariant.violation]]:
  * projections accumulate in [[repro.linalg.Mat.dot]]'s order, conjunct
  * terms add up in conjunct order, and the clamp to [0,1] is the same.
  */

/** A [[FittedSimple]] as flat arrays.
  *
  * @param k     number of conjuncts K
  * @param m     number of numeric attributes
  * @param w     row-major K×m projection weights
  * @param means training means of the numeric attributes
  */
final class CompiledSimple private (
    val k: Int,
    m: Int,
    w: Array[Double],
    lb: Array[Double],
    ub: Array[Double],
    alpha: Array[Double],
    gamma: Array[Double],
    val means: Array[Double],
) extends Serializable {

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

  @inline private def clamp(s: Double): Double = math.min(1.0, math.max(0.0, s))

  /** [[SimpleInvariant.violation]] of a tuple. */
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

object CompiledSimple {
  def apply(fs: FittedSimple): CompiledSimple = {
    val cs = fs.inv.conjuncts.toArray
    val m = fs.means.length
    val w = new Array[Double](cs.length * m)
    cs.indices.foreach { c =>
      val wc = cs(c).proj.weights
      require(wc.length == m, s"CompiledSimple: projection over ${wc.length} attributes, model has $m")
      System.arraycopy(wc, 0, w, c * m, m)
    }
    // No negative γ or α keeps every conjunct term ≥ 0 (or NaN), which the
    // early stop of violationShifted relies on; Algorithm 1 only makes such.
    require(!cs.exists(bp => bp.gamma < 0 || bp.alpha < 0), "CompiledSimple: negative γ or α")
    new CompiledSimple(cs.length, m, w, cs.map(_.lb), cs.map(_.ub), cs.map(_.alpha), cs.map(_.gamma), fs.means)
  }
}

/** A [[ConformanceModel]] as flat arrays: the global branch plus, per
  * disjunctive attribute, its case keys in sorted order and one compiled
  * branch per key. A tuple's categorical values enter as branch indexes,
  * −1 for a null or unseen value.
  */
final class CompiledModel(model: ConformanceModel) extends Serializable {
  val global: CompiledSimple = CompiledSimple(model.global)

  /** Numeric attributes a tuple carries. */
  val numericCount: Int = model.numericCols.length

  private val attrs: Array[String] = model.partitionAttrs.toArray

  /** Disjunctive attributes a tuple carries a branch index for. */
  def partitionCount: Int = attrs.length

  /** Per disjunctive attribute, its case keys in sorted order. */
  private val keys: Array[Array[String]] = model.disjunctive.map(_.cases.keys.toArray.sorted).toArray

  private val branches: Array[Array[CompiledSimple]] =
    model.disjunctive.zip(keys).map { case (d, ks) => ks.map(v => CompiledSimple(d.cases(v))) }.toArray

  /** Per disjunctive attribute, key → branch index; built on first use in
    * each deserialized copy, so it is never shipped.
    */
  @transient private lazy val lookup: Array[java.util.HashMap[UTF8String, Integer]] = keys.map { ks =>
    val h = new java.util.HashMap[UTF8String, Integer](ks.length * 2)
    ks.indices.foreach(i => h.put(UTF8String.fromString(ks(i)), i))
    h
  }

  /** Branch index of disjunctive attribute `a`'s value `v` (−1: null or
    * unseen).
    */
  def branchIndex(a: Int, v: UTF8String): Int =
    if (v == null) -1
    else {
      val i = lookup(a).get(v)
      if (i == null) -1 else i
    }

  /** Branch index of each disjunctive attribute's value (−1: null, unseen
    * or absent from the map).
    */
  def branchIndexes(partVals: Map[String, Option[String]]): Array[Int] =
    Array.tabulate(attrs.length)(a => branchIndex(a, UTF8String.fromString(partVals.getOrElse(attrs(a), None).orNull)))

  /** [[ConformanceModel.violation]]: the mean over the disjunctive
    * components in attribute order (1 for an undefined one), or the
    * global invariant when there are none.
    */
  def violation(idx: Array[Int], x: Array[Double]): Double =
    if (branches.isEmpty) global.violation(x)
    else {
      var s = 0.0; var a = 0
      while (a < branches.length) {
        s += (if (idx(a) < 0) 1.0 else branches(a)(idx(a)).violation(x))
        a += 1
      }
      s / branches.length
    }

  /** The simple invariants a tuple's violation averages over, in attribute
    * order: its branch per disjunctive attribute (null where undefined),
    * or the global invariant alone. Averaging these reproduces
    * [[violation]] exactly, the global case included (x/1 = x).
    */
  def components(idx: Array[Int]): Array[CompiledSimple] =
    if (branches.isEmpty) Array(global)
    else Array.tabulate(branches.length)(a => if (idx(a) < 0) null else branches(a)(idx(a)))

  /** [[ConformanceModel.interventionMeans]]: the means of the first
    * defined branch, else the global means.
    */
  def interventionMeans(idx: Array[Int]): Array[Double] = {
    val a = idx.indexWhere(_ >= 0)
    if (a < 0) global.means else branches(a)(idx(a)).means
  }
}
