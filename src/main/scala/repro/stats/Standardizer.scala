package repro.stats

import org.apache.spark.sql.Column
import org.apache.spark.sql.functions.{col, isnan, when}

/** Z-scoring with fixed (training) statistics, as the PCA-SPLL, CD and
  * softmax baselines apply it: `(x − μ) / σ` per column, where a column
  * with σ = 0 is only centred. Built by [[Moments.standardizer]].
  */
final case class Standardizer(means: Array[Double], stds: Array[Double]) {

  /** The z-scores of one raw tuple. */
  def apply(x: Array[Double]): Array[Double] =
    Array.tabulate(x.length)(i => if (stds(i) > 0) (x(i) - means(i)) / stds(i) else x(i) - means(i))

  /** The z-scores of `cols` as columns, with the bits of [[apply]]: null for a null or NaN
    * value, so an aggregate over a dot product of them skips the rows `na.drop(cols)` drops.
    */
  def columns(cols: Seq[String]): Seq[Column] =
    cols.zipWithIndex.map { case (c, i) =>
      val x = col(c).cast("double")
      val centred = x - means(i)
      when(!isnan(x), if (stds(i) > 0) centred / stds(i) else centred)
    }
}
