package repro.core

import scala.collection.parallel.CollectionConverters._
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.{avg, col}
import org.apache.spark.sql.types.{NumericType, StringType, BooleanType}
import repro.stats.Moments

/** DISYNTH — end-to-end conformance-constraint (data-invariant) discovery
  * and violation scoring.
  *
  * Discovery (§4): fit the global simple invariant of Algorithm 1 plus, for
  * every qualifying categorical attribute (≤ 50 distinct values, the
  * paper's threshold), a disjunctive invariant with one simple invariant
  * per partition. The global moments and those of every partition of every
  * attribute come from a single scan ([[Moments.scan]]), which also counts
  * each attribute's distinct values.
  *
  * Scoring: a `DataFrame → DataFrame` transformation appending a
  * `violation ∈ [0,1]` column, no shuffle. The column is a Catalyst
  * expression, [[ScoreExpr]], over the [[ConformanceModel]] itself
  * (its simple invariants store flat arrays, O(m²) doubles per branch);
  * whole-stage codegen compiles it into the query's generated Java, which
  * reads each row's numeric values and branch indexes into reused buffers.
  */
object Disynth {

  /** Discovery knobs.
    *
    * @param pca           Algorithm 1 parameters
    * @param maxDistinct   categorical attributes with more distinct values
    *                      than this are not used for partitioning (paper: 50)
    */
  final case class Config(pca: PcaSynth.Config = PcaSynth.Config(), maxDistinct: Int = 50)

  /** Partitions with fewer rows get no invariant (their branch would be all
    * noise); tuples falling in them score 1 like unseen values.
    */
  private val MinPartRows = 2L

  /** Fit a model with explicit attribute roles.
    *
    * @param df            training data
    * @param numericCols   numeric attributes the projections range over
    * @param partitionCols categorical attributes to partition on (attributes
    *                      with more than `maxDistinct` distinct non-null
    *                      values are silently skipped, as in the paper's
    *                      greedy attribute selection)
    */
  def fit(
      df: DataFrame,
      numericCols: Seq[String],
      partitionCols: Seq[String] = Nil,
      cfg: Config = Config(),
  ): ConformanceModel = {
    require(numericCols.nonEmpty, "Disynth.fit: no numeric columns")
    synthesize(Moments.scan(df, numericCols, partitionCols, cfg.maxDistinct), cfg)
  }

  /** [[fit]]'s driver-side half: the model of a scan's global moments and of
    * each grouping column it kept, a branch per value of ≥ `MinPartRows` rows.
    */
  def synthesize(scan: Moments.Scan, cfg: Config = Config()): ConformanceModel = {
    val global = PcaSynth.simpleInvariant(scan.global, cfg.pca)
    // Each branch is a pure function of its moments, so synthesizing them
    // in parallel gives the same model on any number of threads.
    val parts = scan.groupCols.zip(scan.groups).collect { case (attr, Some(grouped)) => attr -> grouped }
    val fitted = parts.flatMap { case (attr, grouped) =>
      grouped.collect { case (v, mom) if mom.n >= MinPartRows => (attr, v, mom) }
    }.par.map { case (attr, v, mom) => (attr, v) -> PcaSynth.simpleInvariant(mom, cfg.pca) }.seq.toMap
    val disjunctive = parts.flatMap { case (attr, grouped) =>
      val cases = grouped.flatMap { case (v, _) => fitted.get((attr, v)).map(v -> _) }
      if (cases.isEmpty) None else Some(DisjunctiveInvariant(attr, cases))
    }
    ConformanceModel(scan.global.cols, global, disjunctive)
  }

  /** Fit with schema-driven attribute roles: numeric-typed columns become
    * projection attributes; string/boolean columns with ≤ `maxDistinct`
    * values become partitioning attributes. `exclude` drops columns entirely
    * (e.g. the ML target, which the paper's invariants never see).
    */
  def autoFit(df: DataFrame, exclude: Seq[String] = Nil, cfg: Config = Config()): ConformanceModel = {
    val fields = df.schema.fields.filterNot(f => exclude.contains(f.name))
    val numeric = fields.collect { case f if f.dataType.isInstanceOf[NumericType] => f.name }.toSeq
    val categorical = fields.collect {
      case f if f.dataType == StringType || f.dataType == BooleanType => f.name
    }.toSeq
    fit(df, numeric, categorical, cfg)
  }

  /** Append the model's violation score to every row of `df`.
    *
    * @param outCol name of the appended score column
    */
  def score(df: DataFrame, model: ConformanceModel, outCol: String = "violation"): DataFrame =
    df.withColumn(outCol, ScoreExpr.column(model))

  /** Average violation of a dataset against a model — the paper's drift
    * magnitude of `df` relative to the model's training data (§2, §6.2).
    */
  def avgViolation(df: DataFrame, model: ConformanceModel): Double = {
    val scored = score(df, model, "__v")
    val row = scored.agg(avg(col("__v"))).head()
    if (row.isNullAt(0)) 0.0 else row.getDouble(0)
  }
}
