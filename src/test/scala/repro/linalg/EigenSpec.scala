package repro.linalg

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.{Gen, Prop}
import repro.PropCheck
import repro.linalg.MatOps._

class EigenSpec extends AnyFunSuite with PropCheck {

  private val tol = 1e-8

  /** Random symmetric PSD matrix generator: BᵀB for random B. */
  private def psdGen(n: Int): Gen[Mat] =
    Gen.listOfN(n * n, Gen.choose(-3.0, 3.0)).map { vs =>
      val b = Mat(n, n, vs.toArray)
      b.t * b
    }

  test("diagonal matrix: eigenvalues are the diagonal, sorted ascending") {
    val m = MatOps.fromRows(Seq(Seq(3.0, 0.0, 0.0), Seq(0.0, 1.0, 0.0), Seq(0.0, 0.0, 2.0)))
    val e = Eigen.symmetric(m)
    assert(e.values.toSeq.map(v => math.round(v).toInt) == Seq(1, 2, 3))
  }

  test("identity: all eigenvalues 1") {
    val e = Eigen.symmetric(Mat.eye(4))
    assert(e.values.forall(v => math.abs(v - 1.0) < tol))
  }

  test("known 2x2: [[2,1],[1,2]] has eigenvalues 1 and 3") {
    val e = Eigen.symmetric(MatOps.fromRows(Seq(Seq(2.0, 1.0), Seq(1.0, 2.0))))
    assert(math.abs(e.values(0) - 1.0) < tol)
    assert(math.abs(e.values(1) - 3.0) < tol)
  }

  test("known 2x2: eigenvector of smallest eigenvalue is (1,-1)/√2 up to sign") {
    val e = Eigen.symmetric(MatOps.fromRows(Seq(Seq(2.0, 1.0), Seq(1.0, 2.0))))
    val v = e.vector(0)
    assert(math.abs(math.abs(v(0)) - 1 / math.sqrt(2)) < tol)
    assert(math.abs(v(0) + v(1)) < tol) // opposite signs
  }

  test("eigen equation A·v = λ·v holds for every pair (random PSD)") {
    checkProp(Prop.forAll(psdGen(5)) { a =>
      val e = Eigen.symmetric(a)
      e.values.indices.forall { k =>
        val v = e.vector(k)
        val av = a * v
        val lv = Mat.scale(v, e.values(k))
        av.zip(lv).forall { case (x, y) => math.abs(x - y) < 1e-6 * (1 + math.abs(y)) }
      }
    }, minSuccess = 30)
  }

  test("eigenvectors are orthonormal (random PSD)") {
    checkProp(Prop.forAll(psdGen(4)) { a =>
      val e = Eigen.symmetric(a)
      val ok = for (i <- e.values.indices; j <- e.values.indices) yield {
        val d = Mat.dot(e.vector(i), e.vector(j))
        math.abs(d - (if (i == j) 1.0 else 0.0)) < 1e-6
      }
      ok.forall(identity)
    }, minSuccess = 30)
  }

  test("trace equals sum of eigenvalues (random PSD)") {
    checkProp(Prop.forAll(psdGen(6)) { a =>
      val e = Eigen.symmetric(a)
      val trace = (0 until a.rows).map(i => a(i, i)).sum
      math.abs(trace - e.values.sum) < 1e-6 * (1 + math.abs(trace))
    }, minSuccess = 30)
  }

  test("PSD matrices have non-negative eigenvalues") {
    checkProp(Prop.forAll(psdGen(5)) { a =>
      Eigen.symmetric(a).values.forall(_ > -1e-6)
    }, minSuccess = 30)
  }

  test("reconstruction: V·diag(λ)·Vᵀ == A (random PSD)") {
    checkProp(Prop.forAll(psdGen(4)) { a =>
      val e = Eigen.symmetric(a)
      val n = a.rows
      val rec = Mat.zeros(n, n)
      for (k <- 0 until n; i <- 0 until n; j <- 0 until n)
        rec(i, j) += e.values(k) * e.vectors(i, k) * e.vectors(j, k)
      (0 until n * n).forall(p => math.abs(rec.data(p) - a.data(p)) < 1e-6 * (1 + math.abs(a.data(p))))
    }, minSuccess = 30)
  }

  test("eigenvalues are sorted ascending") {
    checkProp(Prop.forAll(psdGen(6)) { a =>
      val vs = Eigen.symmetric(a).values
      vs.zip(vs.tail).forall { case (x, y) => x <= y + 1e-12 }
    }, minSuccess = 30)
  }

  test("rank-deficient matrix gets (near-)zero smallest eigenvalue") {
    // Outer product vvᵀ has rank 1: n-1 zero eigenvalues.
    val v = Array(1.0, 2.0, 3.0)
    val m = Mat.zeros(3, 3)
    for (i <- 0 until 3; j <- 0 until 3) m(i, j) = v(i) * v(j)
    val e = Eigen.symmetric(m)
    assert(math.abs(e.values(0)) < 1e-8)
    assert(math.abs(e.values(1)) < 1e-8)
    assert(math.abs(e.values(2) - 14.0) < 1e-8)
  }

  test("asymmetric input is rejected") {
    val m = MatOps.fromRows(Seq(Seq(1.0, 2.0), Seq(3.0, 1.0)))
    intercept[IllegalArgumentException](Eigen.symmetric(m))
  }

  test("non-square input is rejected") {
    intercept[IllegalArgumentException](Eigen.symmetric(Mat.zeros(2, 3)))
  }

  test("1x1 matrix") {
    val e = Eigen.symmetric(Mat(1, 1, Array(7.0)))
    assert(e.values(0) == 7.0 && math.abs(math.abs(e.vector(0)(0)) - 1.0) < tol)
  }

  test("handles large-magnitude Gram matrices (airlines scale)") {
    // Entries ~1e12 as produced by 600k rows of minute-of-day squared sums.
    val base = MatOps.fromRows(Seq(Seq(4.0, 1.0, 0.5), Seq(1.0, 3.0, 0.2), Seq(0.5, 0.2, 2.0)))
    val scaled = Mat(3, 3, base.data.map(_ * 1e12))
    val e = Eigen.symmetric(scaled)
    val e0 = Eigen.symmetric(base)
    e.values.zip(e0.values).foreach { case (big, small) =>
      assert(math.abs(big / 1e12 - small) < 1e-6)
    }
  }

  test("entries whose squares overflow still rotate: [[2,1],[1,2]]·s up to s = 1e300") {
    for (s <- Seq(1.0, 1e150, 1e160, 1e300)) {
      val e = Eigen.symmetric(Mat(2, 2, Array(2.0, 1.0, 1.0, 2.0).map(_ * s)))
      assert(math.abs(e.values(0) / s - 1.0) < 1e-12 && math.abs(e.values(1) / s - 3.0) < 1e-12, s"s = $s")
      val v = e.vector(0)
      assert(math.abs(math.abs(v(0)) - 1 / math.sqrt(2)) < 1e-12 && math.abs(v(0) + v(1)) < 1e-12, s"s = $s")
    }
  }
}
