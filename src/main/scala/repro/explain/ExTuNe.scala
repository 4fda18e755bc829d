package repro.explain

import scala.collection.parallel.CollectionConverters._
import org.apache.spark.sql.DataFrame
import org.apache.spark.unsafe.types.UTF8String
import repro.core.{ConformanceModel, ScoreExpr}

/** ExTuNe — intervention-centric explanation of tuple non-conformance
  * (§6.3): responsibility of attribute Aᵢ for a tuple's violation.
  *
  * For a non-conforming tuple t: (1) substitute t.Aᵢ with a "more typical"
  * value — the training mean of Aᵢ (the matching partition's mean when the
  * model is disjunctive, which is what "typical" means under a compound
  * invariant); (2) count how many *additional* attributes K must be
  * substituted before the tuple conforms; (3) responsibility(Aᵢ) = 1/(K+1).
  * Finding the minimum K is combinatorial, so we use the natural greedy
  * construction: repeatedly substitute the attribute that reduces the
  * violation most. Trials that can no longer beat a round's best stop
  * early when the tuple falls in one component, without changing any
  * result. Responsibilities are averaged over a sample of the test set,
  * fetched in one Spark job; the sampled tuples are repaired in parallel
  * on the driver's cores and summed in sample order.
  */
object ExTuNe {

  /** Violation below this counts as "no violation" (conforming). */
  val ConformEps: Double = 1e-6

  /** Per-attribute responsibility of one tuple.
    *
    * @param partVals partition-attribute values of the tuple
    * @param x        numeric values in model ordering (not mutated)
    */
  def tupleResponsibility(
      model: ConformanceModel,
      partVals: Map[String, Option[String]],
      x: Array[Double],
  ): Array[Double] = {
    require(x.length == model.numericCols.length, "tupleResponsibility: length mismatch")
    responsibility(model, model.branchIndexes(partVals), x)
  }

  /** The greedy repair for a tuple's branch indexes.
    *
    * The branches a tuple falls in stay fixed under substitution, so the
    * violation is the mean of a few simple invariants (an undefined one
    * scores 1). Each round projects the current tuple once; a trial
    * substitution of attribute j then moves every projection by
    * w_kj·(target_j − t_j), which costs O(K) instead of O(K·m). The
    * violation that decides when to stop is recomputed from scratch after
    * every committed substitution, so rounding in the trials can only
    * matter between trials within rounding of each other. A round whose
    * tuple still holds a NaN or infinite value evaluates its trials from
    * scratch, since such a value does not cancel out incrementally. Trials
    * run in ascending attribute order and only a strictly lower violation
    * replaces the best, so ties go to the lowest index.
    *
    * With one component (A = 1), an incremental trial stops summing conjunct
    * terms once it cannot score strictly below the round's best, `bestV`;
    * such a trial could not have won, so the results do not change (see
    * [[repro.core.SimpleInvariant.violationShifted]]). With A > 1 components
    * every trial sums all its terms.
    */
  private def responsibility(model: ConformanceModel, idx: Array[Int], x: Array[Double]): Array[Double] = {
    val m = x.length
    val out = new Array[Double](m)
    if (model.violationAt(idx, x) <= ConformEps) return out // conforming: nobody responsible

    val target = model.interventionMeans(idx)
    val comps = model.components(idx)
    val f = comps.map(c => if (c == null) null else new Array[Double](c.k))
    val t = new Array[Double](m)

    // Projects t into f and returns its violation.
    def project(): Double = {
      var s = 0.0; var a = 0
      while (a < comps.length) {
        s += (if (comps(a) == null) 1.0 else comps(a).project(t, f(a)))
        a += 1
      }
      s / comps.length
    }
    // The violation of substituting j, or, once it reaches cap, a value
    // that is still ≥ cap.
    def trial(j: Int, incremental: Boolean, cap: Double): Double =
      if (incremental) {
        val delta = target(j) - t(j)
        var s = 0.0; var a = 0
        while (a < comps.length) {
          val c = comps(a)
          s += (if (c == null) 1.0 else c.violationShifted(f(a), j, delta, cap))
          a += 1
        }
        s / comps.length
      } else {
        val saved = t(j)
        t(j) = target(j)
        val v = model.violationAt(idx, t)
        t(j) = saved
        v
      }

    val done = new Array[Boolean](m)
    var i = 0
    while (i < m) {
      System.arraycopy(x, 0, t, 0, m)
      t(i) = target(i)
      java.util.Arrays.fill(done, false)
      done(i) = true
      var v = project()
      var k = 0
      while (v > ConformEps && k < m - 1) {
        // Greedy: substitute the attribute that lowers violation the most.
        val incremental = t.forall(java.lang.Double.isFinite)
        var bestJ = -1; var bestV = Double.MaxValue
        var j = 0
        while (j < m) {
          if (!done(j)) {
            val vj = trial(j, incremental, if (comps.length == 1) bestV else Double.PositiveInfinity)
            if (vj < bestV) { bestV = vj; bestJ = j }
          }
          j += 1
        }
        t(bestJ) = target(bestJ)
        done(bestJ) = true
        v = project()
        k += 1
      }
      // If substituting everything still violates (unseen partition value),
      // no attribute assignment explains it: responsibility 0 across the board.
      out(i) = if (v > ConformEps) 0.0 else 1.0 / (k + 1.0)
      i += 1
    }
    out
  }

  /** Aggregate responsibility per attribute over (a sample of) `df`.
    *
    * The sample is the first `maxTuples` rows (`limit`), fetched in one
    * Spark job. Each tuple's repair depends on no other tuple and the
    * model is only read, so the tuples are repaired in parallel on the
    * driver's cores, each into its own slot; the slots are then added up on
    * one thread in sample order, so every mean has the same bits on any
    * number of threads.
    *
    * @param maxTuples cap on tuples analysed (> 0) — the greedy repair makes
    *                  up to m starts × m rounds × m trials per tuple, each
    *                  trial at most O(K) on the fitted model (O(m³·K) in the
    *                  worst case), so explanation runs on a sample, as in
    *                  the ExTuNe demo
    * @return attribute name → mean responsibility, in model column order
    */
  def aggregate(df: DataFrame, model: ConformanceModel, maxTuples: Int = 1000): Seq[(String, Double)] = {
    require(maxTuples > 0, s"ExTuNe.aggregate: maxTuples must be positive, got $maxTuples")
    val m = model.numericCols.length
    val rows = df.select(ScoreExpr.inputs(model): _*).limit(maxTuples).collect()
    require(rows.nonEmpty, "ExTuNe.aggregate: empty input")

    val resp = new Array[Double](rows.length * m)
    rows.indices.par.foreach { t =>
      val r = rows(t)
      val x = Array.tabulate(m)(i => if (r.isNullAt(i)) Double.NaN else r.getDouble(i))
      val idx = Array.tabulate(r.length - m)(a => model.branchIndex(a, UTF8String.fromString(r.getString(m + a))))
      System.arraycopy(responsibility(model, idx, x), 0, resp, t * m, m)
    }
    val sums = new Array[Double](m)
    var t = 0
    while (t < rows.length) {
      var i = 0
      while (i < m) { sums(i) += resp(t * m + i); i += 1 }
      t += 1
    }
    model.numericCols.zip(sums.map(_ / rows.length).toSeq)
  }
}
