package repro.core

import org.scalatest.funsuite.AnyFunSuite

class CompoundSpec extends AnyFunSuite {

  private def constInv(center: Double, slack: Double): FittedSimple = {
    val bp = BoundedProjection(
      Array(1.0), center - slack, center + slack,
      alpha = 1.0 / math.max(slack / 4, 1e-9), gamma = 1.0, mean = center, std = slack / 4)
    FittedSimple(SimpleInvariant(Seq(bp)), Array(center), 10L)
  }

  private val disj = DisjunctiveInvariant("color", Map(
    "red" -> constInv(0.0, 1.0),
    "blue" -> constInv(10.0, 1.0),
  ))

  /** [[ψ_A]](t) of `disj`, scored by a model with `disj` as its one
    * disjunctive component (whose mean over one component is that
    * component's score).
    */
  private def violation(attrValue: Option[String], x: Array[Double]): Double =
    ConformanceModel(Seq("v"), constInv(0.0, 1.0), Seq(disj)).violation(Map(disj.attr -> attrValue), x)

  test("switch operator picks the branch matching the attribute value") {
    assert(violation(Some("red"), Array(0.5)) == 0.0)
    assert(violation(Some("blue"), Array(10.5)) == 0.0)
    assert(violation(Some("red"), Array(10.0)) > 0.9)
    assert(violation(Some("blue"), Array(0.0)) > 0.9)
  }

  test("unseen attribute value: simp is undefined, violation is 1") {
    assert(violation(Some("green"), Array(0.0)) == 1.0)
  }

  test("null attribute value: violation is 1") {
    assert(violation(None, Array(0.0)) == 1.0)
  }

  test("conjunction of disjunctive invariants averages component scores") {
    val disj2 = DisjunctiveInvariant("size", Map(
      "small" -> constInv(0.0, 1.0),
      "large" -> constInv(100.0, 1.0),
    ))
    val model = ConformanceModel(Seq("v"), constInv(0.0, 1.0), Seq(disj, disj2))
    // Conforms to color=red branch, violates size=large branch entirely.
    val v = model.violation(Map("color" -> Some("red"), "size" -> Some("large")), Array(0.0))
    assert(v > 0.45 && v < 0.55)
    // Conforms to both.
    assert(model.violation(Map("color" -> Some("red"), "size" -> Some("small")), Array(0.0)) == 0.0)
  }

  test("model with no disjunctive components falls back to the global invariant") {
    val model = ConformanceModel(Seq("v"), constInv(5.0, 1.0), Nil)
    assert(model.violation(Map.empty, Array(5.0)) == 0.0)
    assert(model.violation(Map.empty, Array(9.0)) > 0.9)
  }

  test("missing partition value in the map counts as undefined (1) for that component") {
    val model = ConformanceModel(Seq("v"), constInv(0.0, 1.0), Seq(disj))
    assert(model.violation(Map.empty, Array(0.0)) == 1.0)
  }

  test("interventionMeans prefers the matched partition over the global means") {
    val model = ConformanceModel(Seq("v"), constInv(5.0, 1.0), Seq(disj))
    assert(model.interventionMeans(model.branchIndexes(Map("color" -> Some("blue")))).sameElements(Array(10.0)))
    assert(model.interventionMeans(model.branchIndexes(Map("color" -> Some("green")))).sameElements(Array(5.0)))
    assert(model.interventionMeans(model.branchIndexes(Map.empty)).sameElements(Array(5.0)))
  }

  test("partitionAttrs lists the switching attributes in order") {
    val disj2 = DisjunctiveInvariant("size", Map("s" -> constInv(0.0, 1.0)))
    val model = ConformanceModel(Seq("v"), constInv(0.0, 1.0), Seq(disj, disj2))
    assert(model.partitionAttrs == Seq("color", "size"))
  }

  test("compound model is java-serializable (ships inside UDF closures)") {
    val model = ConformanceModel(Seq("v"), constInv(0.0, 1.0), Seq(disj))
    val bos = new java.io.ByteArrayOutputStream()
    new java.io.ObjectOutputStream(bos).writeObject(model)
    val in = new java.io.ObjectInputStream(new java.io.ByteArrayInputStream(bos.toByteArray))
    val back = in.readObject().asInstanceOf[ConformanceModel]
    assert(back.violation(Map("color" -> Some("red")), Array(0.5)) == 0.0)
    assert(back.violation(Map("color" -> Some("green")), Array(0.5)) == 1.0)
  }
}
