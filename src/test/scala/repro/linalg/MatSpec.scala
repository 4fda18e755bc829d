package repro.linalg

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.{Gen, Prop}
import repro.PropCheck
import repro.linalg.MatOps._

class MatSpec extends AnyFunSuite with PropCheck {

  private val eps = 1e-9

  test("zeros builds an all-zero matrix of the right shape") {
    val m = Mat.zeros(2, 3)
    assert(m.rows == 2 && m.cols == 3)
    assert(m.data.forall(_ == 0.0))
  }

  test("eye builds the identity") {
    val m = Mat.eye(3)
    for (i <- 0 until 3; j <- 0 until 3)
      assert(m(i, j) == (if (i == j) 1.0 else 0.0))
  }

  test("fromRows round-trips elements") {
    val m = MatOps.fromRows(Seq(Seq(1.0, 2.0), Seq(3.0, 4.0)))
    assert(m(0, 0) == 1.0 && m(0, 1) == 2.0 && m(1, 0) == 3.0 && m(1, 1) == 4.0)
  }

  test("fromRows rejects ragged input") {
    intercept[IllegalArgumentException](MatOps.fromRows(Seq(Seq(1.0), Seq(1.0, 2.0))))
  }

  test("update mutates a single cell") {
    val m = Mat.zeros(2, 2)
    m(1, 0) = 5.0
    assert(m(1, 0) == 5.0 && m(0, 1) == 0.0)
  }

  test("transpose swaps indices") {
    val m = MatOps.fromRows(Seq(Seq(1.0, 2.0, 3.0), Seq(4.0, 5.0, 6.0)))
    val t = m.t
    assert(t.rows == 3 && t.cols == 2)
    for (i <- 0 until 2; j <- 0 until 3) assert(t(j, i) == m(i, j))
  }

  test("matrix-vector product matches hand computation") {
    val m = MatOps.fromRows(Seq(Seq(1.0, 2.0), Seq(3.0, 4.0)))
    val r = m * Array(5.0, 6.0)
    assert(r.sameElements(Array(17.0, 39.0)))
  }

  test("matrix-matrix product matches hand computation") {
    val a = MatOps.fromRows(Seq(Seq(1.0, 2.0), Seq(3.0, 4.0)))
    val b = MatOps.fromRows(Seq(Seq(0.0, 1.0), Seq(1.0, 0.0)))
    val c = a * b
    assert(c == MatOps.fromRows(Seq(Seq(2.0, 1.0), Seq(4.0, 3.0))))
  }

  test("identity is a two-sided unit for multiplication") {
    val a = MatOps.fromRows(Seq(Seq(2.0, -1.0), Seq(0.5, 3.0)))
    assert((Mat.eye(2) * a) == a)
    assert((a * Mat.eye(2)) == a)
  }

  test("col extracts the j-th column") {
    val m = MatOps.fromRows(Seq(Seq(1.0, 2.0), Seq(3.0, 4.0)))
    assert(m.col(1).sameElements(Array(2.0, 4.0)))
  }

  test("maxOffDiagAbs ignores the diagonal") {
    val m = MatOps.fromRows(Seq(Seq(100.0, 2.0), Seq(-3.0, 100.0)))
    assert(m.maxOffDiagAbs == 3.0)
  }

  test("dot and norm2 agree: norm2(v)^2 == dot(v,v)") {
    checkProp(Prop.forAll(Gen.listOfN(5, Gen.choose(-10.0, 10.0))) { vs =>
      val v = vs.toArray
      math.abs(Mat.norm2(v) * Mat.norm2(v) - Mat.dot(v, v)) < 1e-6
    })
  }

  test("dot is symmetric and bilinear in the first argument") {
    val gen = Gen.listOfN(4, Gen.choose(-5.0, 5.0)).map(_.toArray)
    checkProp(Prop.forAll(gen, gen, Gen.choose(-3.0, 3.0)) { (a, b, s) =>
      math.abs(Mat.dot(a, b) - Mat.dot(b, a)) < eps &&
      math.abs(Mat.dot(Mat.scale(a, s), b) - s * Mat.dot(a, b)) < 1e-6
    })
  }

  test("scale multiplies every element") {
    assert(Mat.scale(Array(1.0, -2.0), -3.0).sameElements(Array(-3.0, 6.0)))
  }

  test("Mat equality is structural") {
    val a = MatOps.fromRows(Seq(Seq(1.0, 2.0)))
    val b = MatOps.fromRows(Seq(Seq(1.0, 2.0)))
    assert(a == b && a.hashCode == b.hashCode)
  }

  test("constructor rejects wrong-length data") {
    intercept[IllegalArgumentException](Mat(2, 2, Array(1.0)))
  }
}
