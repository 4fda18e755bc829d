package repro.linalg

/** Matrix operations only the tests use: building from row literals,
  * transpose and the matrix product (`import MatOps._` for the last two).
  */
object MatOps {

  /** Build from a row-of-rows literal (rows must be equal length). */
  def fromRows(rws: Seq[Seq[Double]]): Mat = {
    require(rws.nonEmpty && rws.forall(_.length == rws.head.length), "ragged rows")
    Mat(rws.length, rws.head.length, rws.flatten.toArray)
  }

  implicit final class MatTestOps(private val a: Mat) extends AnyVal {

    /** Matrix transpose. */
    def t: Mat = {
      val out = Mat.zeros(a.cols, a.rows)
      for (i <- 0 until a.rows; j <- 0 until a.cols) out(j, i) = a(i, j)
      out
    }

    /** Matrix-matrix product. */
    def *(o: Mat): Mat = {
      require(a.cols == o.rows, s"Mat*Mat: ${a.cols} != ${o.rows}")
      val out = Mat.zeros(a.rows, o.cols)
      for (i <- 0 until a.rows; k <- 0 until a.cols if a(i, k) != 0.0; j <- 0 until o.cols)
        out(i, j) += a(i, k) * o(k, j)
      out
    }
  }
}
