package repro.exp

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.Disynth
import repro.data.Airlines
import repro.ml.LinearRegression
import repro.stats.Stats

/** Trusted-ML experiment on the airlines dataset (Figure 3 table + the
  * violation-vs-error correlation of Figure 4).
  *
  * Invariants are learned on the daytime training split, *excluding* the
  * target (`arr_delay`); a linear-regression delay model is trained on the
  * same split. Each test split reports its average invariant violation and
  * the model's MAE.
  */
object AirlinesTml {

  /** One row of the Figure 3 table. */
  final case class SplitRow(split: String, avgViolation: Double, mae: Double)

  /** @param rows   Figure 3 rows (Train, Daytime, Overnight, Mixed)
    * @param pcc    Pearson correlation between per-tuple violation and
    *               absolute prediction error on a Mixed sample (Figure 4)
    */
  final case class Result(rows: Seq[SplitRow], pcc: Double)

  def run(spark: SparkSession, nFlights: Long = 200000, seed: Long = 11): Result = {
    val flights = Airlines.flights(spark, nFlights, seed).cache()
    try {
      val day = Airlines.daytime(flights)
      val Array(train, dayHold) = day.randomSplit(Array(0.8, 0.2), seed)
      val over = Airlines.overnight(flights)
      val mixed = Airlines.mixed(dayHold, over, 2.0, seed + 100)

      val model = Disynth.fit(train, Airlines.FeatureCols, Seq("carrier"))
      val reg = LinearRegression.fit(train, Airlines.FeatureCols, Airlines.TargetCol)

      def row(name: String, df: DataFrame): SplitRow =
        SplitRow(name, Disynth.avgViolation(df, model), reg.mae(df, Airlines.TargetCol))

      val rows = Seq(
        row("Train", train),
        row("Daytime", dayHold),
        row("Overnight", over),
        row("Mixed", mixed),
      )

      // Figure 4: per-tuple violation vs |prediction error| on Mixed.
      // Sampled *after* a shuffle (a bare limit() would take rows from one
      // side of the union only), correlation computed distributed.
      val scored = reg.transform(Disynth.score(mixed, model), "__p")
        .select(col("violation"), abs(col("__p") - col(Airlines.TargetCol)).as("__err"))
        .orderBy(rand(seed + 200))
        .limit(1000)
        .collect()
      val pcc = Stats.pearson(
        scored.map(_.getDouble(0)).toSeq,
        scored.map(_.getDouble(1)).toSeq)

      Result(rows, pcc)
    } finally flights.unpersist()
  }
}
