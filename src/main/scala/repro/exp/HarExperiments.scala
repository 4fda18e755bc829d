package repro.exp

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.{ConformanceModel, Disynth, ViolationExpr}
import repro.data.Har
import repro.linalg.Mat
import repro.ml.LogisticRegression
import repro.stats.Stats

/** The three HAR experiments: the mixture curve of Fig. 5(a), the gradual-
  * drift comparison of Fig. 5(b), and the inter-person / inter-activity
  * violation heat maps of Figs. 6 and 7.
  */
object HarExperiments {

  /** One point of the Fig. 5(a) curve. */
  final case class MixPoint(mobileFraction: Double, avgViolation: Double, accuracyDrop: Double)

  final case class MixResult(points: Seq[MixPoint], pcc: Double)

  /** Fig. 5(a): invariants + person classifier trained on sedentary data;
    * test sets mix in a growing fraction of mobile-activity data.
    */
  def mixCurve(
      spark: SparkSession,
      rowsPerPersonActivity: Int = 120,
      fractions: Seq[Double] = Seq(0.0, 0.2, 0.4, 0.6, 0.8, 1.0),
      seed: Long = 7,
  ): MixResult = {
    withCached(Har.data(spark, rowsPerPersonActivity, seed)) { all =>
      val sedentary = all.filter(col("activity").isin(Har.Sedentary: _*))
      withCached(all.filter(col("activity").isin(Har.Mobile: _*))) { mobile =>
        withCached(Har.trainHalf(sedentary)) { trainX =>
          withCached(Har.holdHalf(sedentary)) { holdSed =>
            val inv = Disynth.fit(trainX, Har.FeatureCols, Seq("activity"))
            val clf = LogisticRegression.fit(trainX, Har.FeatureCols, "person")
            val baseAcc = clf.accuracy(holdSed, "person")

            val nSed = holdSed.count().toDouble
            val nMob = mobile.count().toDouble
            val testSize = math.min(nSed, nMob)

            val points = fractions.map { f =>
              val sedRate = math.min(1.0, (1 - f) * testSize / nSed)
              val mobRate = math.min(1.0, f * testSize / nMob)
              val test =
                holdSed.sample(withReplacement = false, sedRate, seed + (f * 100).toLong)
                  .unionAll(mobile.sample(withReplacement = false, mobRate, seed + 1 + (f * 100).toLong))
              MixPoint(f, Disynth.avgViolation(test, inv), baseAcc - clf.accuracy(test, "person"))
            }
            val pcc = Stats.pearson(points.map(_.avgViolation), points.map(_.accuracyDrop))
            MixResult(points, pcc)
          }
        }
      }
    }
  }

  /** Activity each person performs initially (Fig. 5(b)): cyclic over an
    * order chosen so most — but not all — switches are detectable, like the
    * organic setup in the paper.
    */
  private val DriftCycle: Seq[String] = Seq("lying", "walking", "sitting", "running", "standing")

  /** The activity person `personIdx` performs once `k` persons switched. */
  private def activityAt(personIdx: Int, k: Int): String =
    DriftCycle((personIdx + (if (personIdx < k) 1 else 0)) % 5)

  /** One point of the Fig. 5(b) curves. */
  final case class DriftPoint(k: Int, disynth: Double, wpca: Double)

  /** Fig. 5(b): persons switch activity one at a time (K = number switched);
    * DISYNTH uses per-person disjunctive invariants, W-PCA a single global
    * one. The global activity mixture is invariant under the cyclic switch,
    * so W-PCA stays flat while DISYNTH tracks the local drift.
    */
  def gradualDrift(
      spark: SparkSession,
      rowsPerPersonActivity: Int = 120,
      seed: Long = 7,
  ): Seq[DriftPoint] = {
    withCached(Har.data(spark, rowsPerPersonActivity, seed)) { all =>
      val initial = Har.Persons.indices
        .map(i => col("person") === Har.Persons(i) && col("activity") === activityAt(i, 0))
        .reduce(_ || _)
      val initialTrain = Har.trainHalf(all.filter(initial))
      val disModel = Disynth.fit(initialTrain, Har.FeatureCols, Seq("person"))
      // W-PCA is DISYNTH without disjunction: one global simple invariant.
      val wpcaModel = Disynth.fit(initialTrain, Har.FeatureCols)
      driftCurve(Har.holdHalf(all), disModel, wpcaModel)
    }
  }

  /** The Fig. 5(b) points from one grouped score of the held-out rows: the
    * violation sums and row count of every (person, activity) pair under
    * both models, combined on the driver into each K's average.
    */
  private[exp] def driftCurve(hold: DataFrame, dis: ConformanceModel, wpca: ConformanceModel): Seq[DriftPoint] = {
    val cells = hold.groupBy("person", "activity")
      .agg(sum(ViolationExpr.column(dis)), sum(ViolationExpr.column(wpca)), count(lit(1)))
      .collect()
      .map(r => (r.getString(0), r.getString(1)) -> (r.getDouble(2), r.getDouble(3), r.getLong(4)))
      .toMap
    (0 to Har.Persons.length).map { k =>
      val current = Har.Persons.indices.map(i => cells((Har.Persons(i), activityAt(i, k))))
      val n = current.map(_._3).sum.toDouble
      DriftPoint(k, current.map(_._1).sum / n, current.map(_._2).sum / n)
    }
  }

  /** Runs `body` on `df` cached, and unpersists it afterwards, also when
    * `body` throws. Nested calls unpersist derived frames before the frames
    * they are built on.
    */
  private def withCached[T](df: DataFrame)(body: DataFrame => T): T = {
    val cached = df.cache()
    try body(cached) finally cached.unpersist()
  }

  /** Fig. 6: for each person, fit disjunctive (per-activity) invariants on
    * half their data; score every person's held-out half, activity-wise.
    *
    * @return (person labels, matrix) where cell (i,j) is the violation of
    *         person j's data against person i's invariants
    */
  def interPerson(spark: SparkSession, rowsPerPersonActivity: Int = 120, seed: Long = 7,
                  persons: Seq[String] = Har.Persons): (Seq[String], Mat) = {
    withCached(Har.data(spark, rowsPerPersonActivity, seed).filter(col("person").isin(persons: _*))) { all =>
      (persons, heatmap(all, persons, "person", "activity"))
    }
  }

  /** Fig. 7: for each activity, fit invariants (disjunctive over person) on
    * half the data; score every activity's held-out half.
    *
    * @return (activity labels, matrix) where cell (i,j) is the violation of
    *         activity j's data against activity i's invariants
    */
  def interActivity(spark: SparkSession, rowsPerPersonActivity: Int = 120, seed: Long = 7)
      : (Seq[String], Mat) = {
    withCached(Har.data(spark, rowsPerPersonActivity, seed)) { all =>
      (Har.Activities, heatmap(all, Har.Activities, "activity", "person"))
    }
  }

  /** The Figs. 6/7 loop: for each value of `rowCol`, fit invariants
    * (disjunctive over `partCol`) on the train half of its rows; then score
    * the held-out half of `all` under every model in one job, averaging
    * each model's violation per `rowCol` value. Cell (i, j) is the
    * violation of `labels(j)`'s data against `labels(i)`'s invariants.
    */
  private def heatmap(all: DataFrame, labels: Seq[String], rowCol: String, partCol: String): Mat = {
    val models = labels.map(l => Disynth.fit(Har.trainHalf(all.filter(col(rowCol) === l)), Har.FeatureCols, Seq(partCol)))
    val avgs = models.map(model => avg(ViolationExpr.column(model)))
    val byLabel = Har.holdHalf(all).groupBy(col(rowCol)).agg(avgs.head, avgs.tail: _*)
      .collect()
      .map(r => r.getString(0) -> r)
      .toMap
    val m = Mat.zeros(labels.length, labels.length)
    for (i <- labels.indices; j <- labels.indices) m(i, j) = byLabel(labels(j)).getDouble(1 + i)
    m
  }
}
