package repro.core

import scala.util.Random
import repro.linalg.Mat
import repro.stats.Moments

/** Random fitted models for property tests, synthesized by Algorithm 1 from
  * random linear data, so they look like real fits: unit-norm weights,
  * γ's summing to 1, and σ-floored conjuncts wherever an attribute is an
  * exact linear function of the others.
  */
object RandomModels {

  /** A linear data source: x = offset + mix·z + noise ∘ ε with z, ε ~ N(0, I).
    * Attributes with zero noise are exact functions of z.
    */
  final case class Source(offset: Array[Double], mix: Array[Array[Double]], noise: Array[Double]) {
    def draw(rnd: Random): Array[Double] = {
      val z = Array.fill(mix.head.length)(rnd.nextGaussian())
      Array.tabulate(offset.length)(i => offset(i) + Mat.dot(mix(i), z) + noise(i) * rnd.nextGaussian())
    }
  }

  /** A source over `m` attributes with ⌈m/2⌉ latent factors; about one
    * attribute in three is noise-free.
    */
  def source(rnd: Random, m: Int): Source = {
    val r = (m + 1) / 2
    Source(
      Array.fill(m)(rnd.between(-100.0, 100.0)),
      Array.fill(m, r)(rnd.nextGaussian() * rnd.between(0.5, 5.0)),
      Array.fill(m)(if (rnd.nextInt(3) == 0) 0.0 else rnd.between(0.1, 1.0)),
    )
  }

  def moments(rows: Seq[Array[Double]], cols: Seq[String]): Moments = {
    val m = cols.length
    val sums = new Array[Double](m)
    val gram = Mat.zeros(m, m)
    rows.foreach { x =>
      var i = 0
      while (i < m) {
        sums(i) += x(i)
        var j = 0
        while (j < m) { gram(i, j) += x(i) * x(j); j += 1 }
        i += 1
      }
    }
    Moments(rows.length.toLong, cols, sums, gram)
  }

  /** Algorithm 1 on `n` rows of `src`. */
  def fitted(rnd: Random, src: Source, cols: Seq[String], n: Int = 200): FittedSimple =
    PcaSynth.simpleInvariant(moments(Seq.fill(n)(src.draw(rnd)), cols))

  /** A model over `m` numeric attributes whose disjunctive attributes are
    * `attrs` (name → case keys), each case fitted on its own source. With
    * `emptyBranch`, the first attribute's first case has no conjuncts.
    * Returns the model and the source of every (attribute, key), keyed
    * `attr=key`, plus the global source under "".
    */
  def model(rnd: Random, m: Int, attrs: Seq[(String, Seq[String])], emptyBranch: Boolean = false)
      : (ConformanceModel, Map[String, Source]) = {
    val cols = (0 until m).map(i => s"x$i")
    val globalSrc = source(rnd, m)
    var sources = Map("" -> globalSrc)
    val disjunctive = attrs.zipWithIndex.map { case ((attr, keys), a) =>
      DisjunctiveInvariant(attr, keys.zipWithIndex.map { case (key, c) =>
        val src = source(rnd, m)
        sources += s"$attr=$key" -> src
        val fs = fitted(rnd, src, cols)
        key -> (if (emptyBranch && a == 0 && c == 0) FittedSimple(SimpleInvariant(Nil), fs.means, 1L) else fs)
      }.toMap)
    }
    (ConformanceModel(cols, fitted(rnd, globalSrc, cols), disjunctive), sources)
  }

  /** Conjuncts whose σ was floored (near-exact invariants). */
  def flooredConjuncts(model: ConformanceModel): Int =
    (model.global +: model.disjunctive.flatMap(_.cases.values)).iterator
      .flatMap(_.inv.conjuncts).count(bp => bp.ub - bp.mean > 4.0 * bp.std * (1 + 1e-9))
}
