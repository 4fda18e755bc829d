package repro.core

import repro.linalg.{Eigen, Mat}
import repro.stats.Moments

/** Algorithm 1: PCA-inspired synthesis of simple invariants.
  *
  * Works purely on [[Moments]] — the single distributed pass over the data —
  * so per-projection means/variances come from the same sums and Gram matrix
  * (μ(F) = wᵀμ, E[F²] = wᵀ(XᵀX/n)w) instead of a second scan. This is an
  * exact algebraic refactoring of the paper's "compute mean and variance of
  * the projections on the original dataset" step.
  */
object PcaSynth {

  /** Synthesis knobs (paper defaults).
    *
    * @param C bound width in standard deviations (paper uses 4)
    */
  final case class Config(C: Double = 4.0)

  /** Cap on the scaling factor α. */
  private val BigAlpha = 1e9

  /** (Near-)exact invariants get an *effective* σ of
    * `RelSigmaFloor · rms(‖t‖)` for bounds and α. This is the
    * numerically-robust version of the paper's "set α to a large positive
    * number when σ = 0": eigenvector round-off produces projection errors
    * proportional to the tuple norm, so an exact invariant needs a
    * tolerance at the data's scale or it flags conforming tuples on float
    * noise alone.
    */
  private val RelSigmaFloor = 1e-5

  /** Eigenvectors whose non-constant part has 2-norm below this are dropped
    * (they are the pure-constant direction, which projects every tuple to
    * the same value).
    */
  private val WeightEps = 1e-9

  /** Run Algorithm 1 on precomputed moments.
    *
    * Lines 2–3: eigendecompose the Gram of the 1-augmented data;
    * lines 5–6: strip the constant component and normalize;
    * line 7 + Appendix G: importance γ_k ∝ 1/log(2+σ_k), normalized;
    * §4.1.1: bounds μ ± C·σ, scaling α = 1/σ.
    */
  def simpleInvariant(mom: Moments, cfg: Config = Config()): FittedSimple = {
    if (mom.n == 0) return FittedSimple(SimpleInvariant(Nil), mom.means, 0L)

    val eig = Eigen.symmetric(mom.augmentedGram)
    // RMS tuple norm: the scale at which eigenvector round-off shows up in
    // projection values; floors the effective σ of exact invariants.
    val m = mom.cols.length
    val rmsTuple = math.sqrt((0 until m).map(i => mom.gram(i, i)).sum / math.max(mom.n, 1L))
    val sigmaFloor = math.max(RelSigmaFloor * rmsTuple, 1e-12)

    val raw = for {
      k <- eig.values.indices
      stripped = eig.vector(k).drop(1)
      nrm = Mat.norm2(stripped)
      if nrm > WeightEps
    } yield {
      val w = Mat.scale(stripped, 1.0 / nrm)
      val mu = mom.meanOf(w)
      val sd = mom.stdOf(w)
      val sdEff = math.max(sd, sigmaFloor)
      val alpha = math.min(BigAlpha, 1.0 / sdEff)
      val gammaRaw = 1.0 / math.log(2.0 + sd)
      (BoundedProjection(w, mu - cfg.C * sdEff, mu + cfg.C * sdEff, alpha, gammaRaw, mu, sd), gammaRaw)
    }

    val z = raw.map(_._2).sum
    val conjuncts = raw.map { case (bp, g) => bp.copy(gamma = g / z) }
    FittedSimple(SimpleInvariant(conjuncts), mom.means, mom.n)
  }
}
