package repro.data

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._

/** Synthetic airlines dataset (substitute for the 2008 OTP subset, §6.1).
  *
  * Planted structure (the paper's Example 1 in generator form):
  *  - scheduled departure uniform over the day; true duration 60–600 min;
  *    scheduled arrival = (dep + duration) mod 1440 — flights that wrap
  *    midnight are *overnight* (arrival time earlier than departure time;
  *    the schema does not report the arrival date, exactly like the paper's
  *    data)
  *  - reported times carry a few minutes of clock noise, and the reported
  *    `duration` column has independent noise: the invariant
  *    `(60·arr_hour+arr_min) − (60·dep_hour+dep_min) − duration ≈ 0`
  *    holds only approximately, and only for daytime flights
  *  - the regression target `arr_delay` is a linear function of dep_delay
  *    and the *true* duration plus noise, so a least-squares model trained
  *    on daytime flights silently relies on the invariant; on overnight
  *    flights the (arr−dep) surrogate is off by −1440 and predictions break
  */
object Airlines {

  /** Numeric attributes (invariant + regression features; target excluded
    * from invariant discovery as in the paper).
    */
  val FeatureCols: Seq[String] =
    Seq("dep_hour", "dep_min", "arr_hour", "arr_min", "duration", "distance", "dep_delay")

  val TargetCol: String = "arr_delay"

  /** Generate `rows` flights. Deterministic in (rows, seed). */
  def flights(spark: SparkSession, rows: Long, seed: Long = 11): DataFrame = {
    val base = spark.range(rows)
      .withColumn("sched_dep", (rand(seed) * 1440).cast(IntegerType))
      .withColumn("true_duration", (rand(seed + 1) * 540 + 60).cast(IntegerType))
      .withColumn("sched_arr_raw", col("sched_dep") + col("true_duration"))
      .withColumn("overnight", col("sched_arr_raw") >= 1440)
      .withColumn("sched_arr", col("sched_arr_raw") % 1440)
      // Reported clocks: ±~3 min jitter, clamped to the day.
      .withColumn("dep_rep",
        greatest(lit(0), least(lit(1439), (col("sched_dep") + randn(seed + 2) * 3).cast(IntegerType))))
      .withColumn("arr_rep",
        greatest(lit(0), least(lit(1439), (col("sched_arr") + randn(seed + 3) * 3).cast(IntegerType))))
      .withColumn("dep_delay", round(pow(rand(seed + 4), 2) * 90, 1))
      .withColumn(TargetCol,
        round(lit(0.9) * col("dep_delay") + lit(0.08) * col("true_duration")
          - lit(15) + randn(seed + 5) * 10, 1))

    base.select(
      element_at(
        array(lit("AA"), lit("UA"), lit("DL"), lit("WN"), lit("B6")),
        (rand(seed + 6) * 5 + 1).cast(IntegerType)).as("carrier"),
      (col("dep_rep") / 60).cast(IntegerType).as("dep_hour"),
      (col("dep_rep") % 60).cast(IntegerType).as("dep_min"),
      (col("arr_rep") / 60).cast(IntegerType).as("arr_hour"),
      (col("arr_rep") % 60).cast(IntegerType).as("arr_min"),
      (col("true_duration") + randn(seed + 7) * 5).cast(IntegerType).as("duration"),
      (col("true_duration") * 8 + randn(seed + 8) * 40).cast(IntegerType).as("distance"),
      col("dep_delay"),
      col(TargetCol),
      col("overnight"),
    )
  }

  /** Daytime flights: scheduled arrival after scheduled departure. */
  def daytime(df: DataFrame): DataFrame = df.filter(!col("overnight"))

  /** Overnight flights: arrival clock-time before departure. */
  def overnight(df: DataFrame): DataFrame = df.filter(col("overnight"))

  /** Mixed split: `day` and `over` sampled to `dayPerOvernight` daytime rows
    * per overnight row, keeping all of the scarcer side (the paper's Mixed
    * is about one-third overnight, ratio 2, judging by its averages).
    */
  def mixed(day: DataFrame, over: DataFrame, dayPerOvernight: Double, seed: Long): DataFrame = {
    val nDay = day.count().toDouble
    val nOver = over.count().toDouble
    val dayRate = math.min(1.0, nOver * dayPerOvernight / nDay)
    val overRate = math.min(1.0, nDay / dayPerOvernight / nOver)
    over.sample(withReplacement = false, overRate, seed)
      .unionAll(day.sample(withReplacement = false, dayRate, seed + 1))
  }
}
