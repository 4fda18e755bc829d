package repro.linalg

/** Minimal dense, row-major, square-friendly matrix: the [[repro.stats.Moments]]
  * Gram and the eigen substrate's input and eigenvectors.
  *
  * The reproduction needs only small driver-side matrices — (m+1)×(m+1)
  * Grams with m ≈ 40 attributes — so this favours clarity over BLAS-level
  * performance. All data-sized work stays in Spark ([[repro.stats.Moments]]).
  *
  * @param rows number of rows
  * @param cols number of columns
  * @param data row-major backing array of length rows*cols
  */
final case class Mat(rows: Int, cols: Int, data: Array[Double]) {
  require(data.length == rows * cols, s"Mat: ${data.length} != $rows*$cols")

  /** Element at (i, j). */
  def apply(i: Int, j: Int): Double = data(i * cols + j)

  /** Mutate element at (i, j) — used only while building matrices. */
  def update(i: Int, j: Int, v: Double): Unit = data(i * cols + j) = v

  /** Deep copy. */
  def copy(): Mat = Mat(rows, cols, data.clone())

  /** Matrix-vector product. */
  def *(v: Array[Double]): Array[Double] = {
    require(v.length == cols, s"Mat*vec: $cols != ${v.length}")
    val out = new Array[Double](rows)
    var i = 0
    while (i < rows) {
      var s = 0.0; var j = 0
      while (j < cols) { s += this(i, j) * v(j); j += 1 }
      out(i) = s; i += 1
    }
    out
  }

  /** Column j as a vector. */
  def col(j: Int): Array[Double] = Array.tabulate(rows)(i => this(i, j))

  /** Maximum absolute off-diagonal element (convergence check for Jacobi). */
  def maxOffDiagAbs: Double = {
    var m = 0.0; var i = 0
    while (i < rows) {
      var j = 0
      while (j < cols) { if (i != j) m = math.max(m, math.abs(this(i, j))); j += 1 }
      i += 1
    }
    m
  }

  override def toString: String =
    (0 until rows).map(i => (0 until cols).map(j => f"${this(i, j)}%12.6f").mkString(" ")).mkString("\n")

  override def equals(o: Any): Boolean = o match {
    case m: Mat => m.rows == rows && m.cols == cols && java.util.Arrays.equals(m.data, data)
    case _      => false
  }
  override def hashCode(): Int = (rows, cols, java.util.Arrays.hashCode(data)).##
}

object Mat {
  /** rows×cols matrix of zeros. */
  def zeros(rows: Int, cols: Int): Mat = Mat(rows, cols, new Array[Double](rows * cols))

  /** n×n identity. */
  def eye(n: Int): Mat = {
    val m = zeros(n, n); var i = 0; while (i < n) { m(i, i) = 1.0; i += 1 }; m
  }

  /** Dot product. */
  def dot(a: Array[Double], b: Array[Double]): Double = {
    require(a.length == b.length, "dot: length mismatch")
    var s = 0.0; var i = 0
    while (i < a.length) { s += a(i) * b(i); i += 1 }
    s
  }

  /** Euclidean (2-)norm. */
  def norm2(a: Array[Double]): Double = math.sqrt(dot(a, a))

  /** a scaled by s into a new array. */
  def scale(a: Array[Double], s: Double): Array[Double] = a.map(_ * s)
}
