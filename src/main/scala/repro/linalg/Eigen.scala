package repro.linalg

/** Symmetric eigendecomposition via cyclic Jacobi rotations.
  *
  * The paper's Algorithm 1 requires the eigenvectors of the (m+1)×(m+1)
  * positive-semidefinite Gram matrix `D′ᵀD′` — the O(m³) step of its
  * complexity analysis (§4.3). Jacobi is a good fit for this reproduction:
  * simple, numerically robust for symmetric matrices, and more than fast
  * enough for m ≲ 100 attributes.
  */
object Eigen {

  /** Eigen-decomposition result; `values(k)` corresponds to column k of
    * `vectors`, sorted ascending by eigenvalue (lowest-variance component
    * first — the component the paper's invariants are built from).
    */
  final case class EigenResult(values: Array[Double], vectors: Mat) {
    /** Eigenvector for the k-th smallest eigenvalue. */
    def vector(k: Int): Array[Double] = vectors.col(k)
  }

  /** Jacobi stops once max |off-diagonal| < `Tol`·‖A‖_F, or after `MaxSweeps`
    * full sweeps (each visits every off-diagonal pair once; ~8–12 suffice here). */
  private val Tol = 1e-12
  private val MaxSweeps = 50

  /** Decompose a symmetric matrix A into eigenvalues/eigenvectors.
    *
    * @param a symmetric matrix (only symmetry is required, not definiteness)
    */
  def symmetric(a: Mat): EigenResult = {
    require(a.rows == a.cols, "Eigen.symmetric: matrix must be square")
    val n = a.rows
    var i = 0
    while (i < n) {
      var j = i + 1
      while (j < n) {
        require(math.abs(a(i, j) - a(j, i)) <= 1e-8 * (1.0 + math.abs(a(i, j))),
          s"Eigen.symmetric: asymmetric at ($i,$j): ${a(i, j)} vs ${a(j, i)}")
        j += 1
      }
      i += 1
    }

    val m = a.copy()
    val v = Mat.eye(n)
    val sumSq = m.data.map(x => x * x).sum
    val fro =
      if (!sumSq.isInfinite) math.sqrt(sumSq).max(1e-300)
      else { // entries ≳ 1.3e154: scale by the largest so the squares stay finite
        val s = m.data.map(math.abs).max
        s * math.sqrt(m.data.map { x => val y = x / s; y * y }.sum)
      }
    var sweep = 0
    while (sweep < MaxSweeps && m.maxOffDiagAbs > Tol * fro) {
      var p = 0
      while (p < n - 1) {
        var q = p + 1
        while (q < n) {
          rotate(m, v, p, q)
          q += 1
        }
        p += 1
      }
      sweep += 1
    }

    val idx = (0 until n).sortBy(k => m(k, k))
    val values = idx.map(k => m(k, k)).toArray
    val vectors = Mat.zeros(n, n)
    for ((k, c) <- idx.zipWithIndex; r <- 0 until n) vectors(r, c) = v(r, k)
    EigenResult(values, vectors)
  }

  /** One Jacobi rotation zeroing element (p,q) of m, accumulating into v. */
  private def rotate(m: Mat, v: Mat, p: Int, q: Int): Unit = {
    val apq = m(p, q)
    if (math.abs(apq) < 1e-300) return
    val app = m(p, p); val aqq = m(q, q)
    val theta = (aqq - app) / (2.0 * apq)
    // t = sign(theta)/(|theta| + sqrt(theta^2+1)): the smaller-angle root.
    val t =
      if (theta >= 0) 1.0 / (theta + math.sqrt(theta * theta + 1.0))
      else 1.0 / (theta - math.sqrt(theta * theta + 1.0))
    val c = 1.0 / math.sqrt(t * t + 1.0)
    val s = t * c
    val n = m.rows
    var k = 0
    while (k < n) {
      val mkp = m(k, p); val mkq = m(k, q)
      m(k, p) = c * mkp - s * mkq
      m(k, q) = s * mkp + c * mkq
      k += 1
    }
    k = 0
    while (k < n) {
      val mpk = m(p, k); val mqk = m(q, k)
      m(p, k) = c * mpk - s * mqk
      m(q, k) = s * mpk + c * mqk
      val vkp = v(k, p); val vkq = v(k, q)
      v(k, p) = c * vkp - s * vkq
      v(k, q) = s * vkp + c * vkq
      k += 1
    }
    // Enforce exact zero + symmetry on the annihilated pair to stop drift.
    m(p, q) = 0.0; m(q, p) = 0.0
  }
}
