package repro.linalg

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.{Gen, Prop}
import repro.PropCheck

class SolveSpec extends AnyFunSuite with PropCheck {

  test("solves a known 2x2 system") {
    val a = MatOps.fromRows(Seq(Seq(2.0, 1.0), Seq(1.0, 3.0)))
    val x = Solve.solve(a, Array(5.0, 10.0))
    assert(math.abs(x(0) - 1.0) < 1e-10 && math.abs(x(1) - 3.0) < 1e-10)
  }

  test("solves identity trivially") {
    val x = Solve.solve(Mat.eye(3), Array(1.0, 2.0, 3.0))
    assert(x.zip(Array(1.0, 2.0, 3.0)).forall { case (a, b) => math.abs(a - b) < 1e-12 })
  }

  test("partial pivoting handles zero leading pivot") {
    val a = MatOps.fromRows(Seq(Seq(0.0, 1.0), Seq(1.0, 0.0)))
    val x = Solve.solve(a, Array(2.0, 3.0))
    assert(math.abs(x(0) - 3.0) < 1e-12 && math.abs(x(1) - 2.0) < 1e-12)
  }

  test("residual A·x − b is tiny on random well-conditioned systems") {
    val gen = for {
      diag <- Gen.listOfN(4, Gen.choose(2.0, 6.0))
      off <- Gen.listOfN(16, Gen.choose(-0.4, 0.4))
    } yield {
      val m = Mat(4, 4, off.toArray)
      for (i <- 0 until 4) m(i, i) = diag(i) // diagonally dominant
      m
    }
    checkProp(Prop.forAll(gen, Gen.listOfN(4, Gen.choose(-5.0, 5.0))) { (a, bs) =>
      val b = bs.toArray
      val x = Solve.solve(a, b)
      val r = a * x
      r.zip(b).forall { case (u, v) => math.abs(u - v) < 1e-8 }
    }, minSuccess = 40)
  }

  test("singular matrix without ridge is rejected") {
    val a = MatOps.fromRows(Seq(Seq(1.0, 2.0), Seq(2.0, 4.0)))
    intercept[IllegalArgumentException](Solve.solve(a, Array(1.0, 2.0)))
  }

  test("ridge makes a singular system solvable") {
    val a = MatOps.fromRows(Seq(Seq(1.0, 2.0), Seq(2.0, 4.0)))
    val x = Solve.solve(a, Array(1.0, 2.0), ridge = 1e-6)
    // Solution approximately satisfies the (consistent) system.
    val r = a * x
    assert(math.abs(r(0) - 1.0) < 1e-3 && math.abs(r(1) - 2.0) < 1e-3)
  }

  test("ridge solution of a collinear system spreads weight (minimum-norm flavour)") {
    // x1 == x2 columns: any (w1, w2) with w1+w2=1 fits; ridge picks ~(0.5, 0.5).
    val a = MatOps.fromRows(Seq(Seq(2.0, 2.0), Seq(2.0, 2.0)))
    val x = Solve.solve(a, Array(2.0, 2.0), ridge = 1e-9)
    assert(math.abs(x(0) - 0.5) < 1e-3 && math.abs(x(1) - 0.5) < 1e-3)
  }

  test("dimension mismatches are rejected") {
    intercept[IllegalArgumentException](Solve.solve(Mat.eye(2), Array(1.0)))
    intercept[IllegalArgumentException](Solve.solve(Mat.zeros(2, 3), Array(1.0, 2.0)))
  }

  test("solve does not mutate its inputs") {
    val a = MatOps.fromRows(Seq(Seq(2.0, 1.0), Seq(1.0, 3.0)))
    val b = Array(5.0, 10.0)
    val aCopy = a.copy(); val bCopy = b.clone()
    Solve.solve(a, b)
    assert(a == aCopy && b.sameElements(bCopy))
  }
}
