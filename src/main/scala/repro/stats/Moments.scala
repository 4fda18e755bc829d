package repro.stats

import scala.collection.mutable
import scala.jdk.CollectionConverters._
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.execution.SQLExecution
import org.apache.spark.sql.functions.col
import org.apache.spark.unsafe.types.UTF8String
import repro.linalg.Mat

/** First and second moments of a set of numeric columns, computed in a
  * single distributed scan.
  *
  * This is the paper's §4.3 scheme — `XᵀX = Σᵢ tᵢtᵢᵀ`, accumulated
  * partition-wise in O(m²) memory. Each partition adds its rows into one
  * packed primitive array by a rank-1 update per row; the driver merges
  * the per-partition arrays (see [[Moments.scan]]). Everything downstream
  * (PCA invariants, OLS, per-projection μ/σ) is derived from this one pass.
  *
  * @param n    row count (rows with a null, NaN or infinite value in a requested column dropped)
  * @param cols column names in order
  * @param sums Σ xᵢ per column
  * @param gram Σ xᵢ·xⱼ, an m×m symmetric matrix
  */
final case class Moments(n: Long, cols: Seq[String], sums: Array[Double], gram: Mat) {
  require(cols.length == sums.length && gram.rows == cols.length && gram.cols == cols.length,
    "Moments: inconsistent dimensions")

  /** Mean vector. */
  def means: Array[Double] = sums.map(_ / math.max(n, 1L))

  /** Mean of the linear form wᵀx (w over `cols`). */
  def meanOf(w: Array[Double]): Double = Mat.dot(w, means)

  /** E[(wᵀx)²] of the linear form. */
  def secondMomentOf(w: Array[Double]): Double = Mat.dot(w, gram * w) / math.max(n, 1L)

  /** Population variance of the linear form wᵀx; clamped at 0 against
    * floating-point cancellation on (near-)exact invariants.
    */
  def varianceOf(w: Array[Double]): Double = {
    val mu = meanOf(w)
    math.max(0.0, secondMomentOf(w) - mu * mu)
  }

  /** Population standard deviation of the linear form wᵀx. */
  def stdOf(w: Array[Double]): Double = math.sqrt(varianceOf(w))

  /** Population standard deviation of each column: `stdOf` of the unit
    * vector eᵢ, written out (the zero terms of its dot products drop away,
    * so the two agree bit for bit on finite moments).
    */
  def stds: Array[Double] = {
    val mu = means
    Array.tabulate(cols.length)(i => math.sqrt(math.max(0.0, gram(i, i) / math.max(n, 1L) - mu(i) * mu(i))))
  }

  /** Z-scorer with these means and [[stds]]. */
  def standardizer: Standardizer = Standardizer(means, stds)

  /** Correlation matrix: the covariance of the standardized columns. A
    * column with σ = 0 has unit self-correlation and 0 correlation with
    * every other column.
    */
  def correlation: Mat = {
    val m = cols.length
    val cov = covariance
    val s = stds
    val out = Mat.zeros(m, m)
    for (i <- 0 until m; j <- 0 until m) {
      val d = s(i) * s(j)
      out(i, j) = if (d > 0) cov(i, j) / d else if (i == j) 1.0 else 0.0
    }
    out
  }

  /** Population covariance matrix (Gram/n − μμᵀ). */
  def covariance: Mat = {
    val m = cols.length
    val mu = means
    val out = Mat.zeros(m, m)
    var i = 0
    while (i < m) {
      var j = 0
      while (j < m) { out(i, j) = gram(i, j) / math.max(n, 1L) - mu(i) * mu(j); j += 1 }
      i += 1
    }
    out
  }

  /** Gram matrix of the 1-augmented data `D′ = [1⃗ ; X]`: the (m+1)×(m+1)
    * matrix `D′ᵀD′ = [[n, sᵀ],[s, XᵀX]]` that Algorithm 1 eigendecomposes.
    */
  def augmentedGram: Mat = {
    val m = cols.length
    val out = Mat.zeros(m + 1, m + 1)
    out(0, 0) = n.toDouble
    var i = 0
    while (i < m) {
      out(0, i + 1) = sums(i); out(i + 1, 0) = sums(i)
      var j = 0
      while (j < m) { out(i + 1, j + 1) = gram(i, j); j += 1 }
      i += 1
    }
    out
  }
}

object Moments {

  /** One moments pass over a DataFrame.
    *
    * @param global    moments of every row whose numeric values are all finite
    * @param groupCols the grouping columns, in the order of `groups`
    * @param groups    per grouping column: the moments of each of its values
    *                  that has such rows, or None when the column has more
    *                  than `maxDistinct` distinct non-null values
    */
  final case class Scan(global: Moments, groupCols: Seq[String], groups: Seq[Option[Map[String, Moments]]])

  /** Compute [[Moments]] over `columns` of `df` in one scan.
    *
    * Rows with a null, NaN or infinite value in any of the columns are
    * excluded — the paper assumes finite numeric tuples; others poison sums.
    */
  def of(df: DataFrame, columns: Seq[String]): Moments = scan(df, columns).global

  /** The [[Moments]] of each value of `groupCol` (rows where it is null
    * excluded), from one [[scan]].
    */
  def byGroup(df: DataFrame, columns: Seq[String], groupCol: String): Map[String, Moments] =
    scan(df, columns, Seq(groupCol)).groups.head.get

  /** The global moments of `columns` and the per-value moments of each of
    * `groupCols`, in one Spark job.
    *
    * Each partition sums its rows into packed accumulators (layout in
    * `Packed`): one global, and one per (grouping column, value). A grouping
    * column's map holds at most `maxDistinct` values; at the next new value
    * the column is marked over and its map dropped. The partials are
    * collected and merged on the driver in partition order, so the same
    * input under the same partitioning always gives bit-identical moments,
    * and the global moments do not depend on which `groupCols` ride along.
    *
    * A row with a null, NaN or infinite numeric value is left out of every
    * sum, but its group keys still count towards `maxDistinct`; a row with a
    * null group key counts in the global moments and in no group.
    */
  def scan(
      df: DataFrame,
      columns: Seq[String],
      groupCols: Seq[String] = Nil,
      maxDistinct: Int = Int.MaxValue,
  ): Scan = {
    require(columns.nonEmpty, "Moments: no columns")
    val m = columns.length
    val g = groupCols.length
    val width = Packed.width(m)
    val selected = df.select(
      groupCols.map(c => col(c).cast("string")) ++ columns.map(c => col(c).cast("double")): _*)
    val qe = selected.queryExecution
    val partials = SQLExecution.withNewExecutionId(qe, Some("moments")) {
      qe.toRdd.mapPartitions { rows =>
        val global = new Array[Double](width)
        // Per grouping column: value → accumulator; null once over maxDistinct.
        val maps = Array.fill(g)(new java.util.HashMap[UTF8String, Array[Double]])
        val x = new Array[Double](m)
        while (rows.hasNext) {
          val row = rows.next()
          var clean = true
          var i = 0
          while (clean && i < m) {
            if (row.isNullAt(g + i)) clean = false
            else { x(i) = row.getDouble(g + i); clean = java.lang.Double.isFinite(x(i)) }
            i += 1
          }
          if (clean) Packed.add(global, x)
          var a = 0
          while (a < g) {
            if (maps(a) != null && !row.isNullAt(a)) {
              val key = row.getUTF8String(a)
              var acc = maps(a).get(key)
              if (acc == null && maps(a).size < maxDistinct) {
                acc = new Array[Double](width)
                maps(a).put(key.copy(), acc)
              }
              if (acc == null) maps(a) = null
              else if (clean) Packed.add(acc, x)
            }
            a += 1
          }
        }
        val groups = maps.map(mp => Option(mp).map(_.asScala.map { case (k, acc) => k.toString -> acc }.toMap))
        Iterator.single((global, groups))
      }.collect()
    }

    val global = new Array[Double](width)
    val merged = Array.fill(g)(mutable.HashMap.empty[String, Array[Double]])
    val over = new Array[Boolean](g)
    partials.foreach { case (pGlobal, pGroups) =>
      Packed.merge(global, pGlobal)
      for (a <- 0 until g) pGroups(a) match {
        case Some(from) if !over(a) =>
          from.foreach { case (k, acc) => Packed.merge(merged(a).getOrElseUpdate(k, new Array[Double](width)), acc) }
        case _ => over(a) = true
      }
    }
    val groups = (0 until g).map { a =>
      if (over(a) || merged(a).size > maxDistinct) None
      else Some(merged(a).collect { case (k, acc) if acc(0) > 0 => k -> Packed.toMoments(acc, columns) }.toMap)
    }
    Scan(Packed.toMoments(global, columns), groupCols, groups)
  }

  /** Packed moments accumulator: one `Array[Double]` laid out as
    * `[n, Σxᵢ (m), Σxᵢxⱼ for i ≤ j (row-major upper triangle)]`.
    */
  private object Packed {
    def width(m: Int): Int = 1 + m + m * (m + 1) / 2

    /** Add the row `x` (rank-1 update of the upper triangle). */
    def add(acc: Array[Double], x: Array[Double]): Unit = {
      val m = x.length
      acc(0) += 1
      var k = 1 + m
      var i = 0
      while (i < m) {
        val xi = x(i)
        acc(1 + i) += xi
        var j = i
        while (j < m) { acc(k) += xi * x(j); j += 1; k += 1 }
        i += 1
      }
    }

    def merge(into: Array[Double], from: Array[Double]): Unit = {
      var k = 0
      while (k < into.length) { into(k) += from(k); k += 1 }
    }

    def toMoments(acc: Array[Double], columns: Seq[String]): Moments = {
      val m = columns.length
      val gram = Mat.zeros(m, m)
      var k = 1 + m
      for (i <- 0 until m; j <- i until m) {
        gram(i, j) = acc(k); gram(j, i) = acc(k)
        k += 1
      }
      Moments(acc(0).toLong, columns, acc.slice(1, 1 + m), gram)
    }
  }
}
