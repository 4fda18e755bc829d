package repro.stats

/** Z-scoring with fixed (training) statistics, as the PCA-SPLL, CD and
  * softmax baselines apply it: `(x − μ) / σ` per column, where a column
  * with σ = 0 is only centred. Built by [[Moments.standardizer]].
  */
final case class Standardizer(means: Array[Double], stds: Array[Double]) {

  /** The z-scores of one raw tuple (a NaN value stays NaN). */
  def apply(x: Array[Double]): Array[Double] =
    Array.tabulate(x.length)(i => if (stds(i) > 0) (x(i) - means(i)) / stds(i) else x(i) - means(i))
}
