package repro.explain

import repro.core.{ConformanceModel, Reference}

/** ExTuNe's greedy repair evaluated naively: every trial is a full model
  * evaluation on the case-class tree. The oracle [[ExTuNe]]'s incremental
  * form must match exactly.
  */
object GreedyOracle {

  def tupleResponsibility(
      model: ConformanceModel,
      partVals: Map[String, Option[String]],
      x: Array[Double],
  ): Array[Double] = {
    val m = x.length
    val target = Reference.interventionMeans(model, partVals)
    val out = new Array[Double](m)
    if (Reference.violation(model, partVals, x) <= ExTuNe.ConformEps) return out

    var i = 0
    while (i < m) {
      val t = x.clone()
      t(i) = target(i)
      var v = Reference.violation(model, partVals, t)
      var k = 0
      val remaining = scala.collection.mutable.Set.from((0 until m).filter(_ != i))
      while (v > ExTuNe.ConformEps && remaining.nonEmpty) {
        var bestJ = -1; var bestV = Double.MaxValue
        for (j <- remaining) {
          val saved = t(j)
          t(j) = target(j)
          val vj = Reference.violation(model, partVals, t)
          if (vj < bestV) { bestV = vj; bestJ = j }
          t(j) = saved
        }
        t(bestJ) = target(bestJ)
        remaining -= bestJ
        v = bestV
        k += 1
      }
      out(i) = if (v > ExTuNe.ConformEps) 0.0 else 1.0 / (k + 1.0)
      i += 1
    }
    out
  }
}
