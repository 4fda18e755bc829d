package repro.core

/** [[ConformanceModel]]'s semantics evaluated on the case-class tree
  * (§3.2: the component invariants' own `violation` methods), the
  * reference the compiled form must match bit for bit.
  */
object Reference {

  def violation(model: ConformanceModel, partVals: Map[String, Option[String]], x: Array[Double]): Double =
    if (model.disjunctive.isEmpty) model.global.violation(x)
    else model.disjunctive.iterator.map(d => d.violation(partVals.getOrElse(d.attr, None), x)).sum /
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
}
