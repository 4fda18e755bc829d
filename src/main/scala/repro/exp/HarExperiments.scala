package repro.exp

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.{ConformanceModel, Disynth, ScoreExpr}
import repro.data.Har
import repro.linalg.Mat
import repro.ml.LogisticRegression
import repro.stats.{Moments, Stats}

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
            val points = mixPoints(mixTests(holdSed, mobile, fractions, seed), fractions, inv, clf, baseAcc)
            MixResult(points, Stats.pearson(points.map(_.avgViolation), points.map(_.accuracyDrop)))
          }
        }
      }
    }
  }

  /** Each fraction's test set: held-out sedentary rows and mobile rows
    * sampled so the mobile share is the fraction, at the size of the
    * smaller pool.
    */
  private[exp] def mixTests(holdSed: DataFrame, mobile: DataFrame, fractions: Seq[Double], seed: Long): Seq[DataFrame] = {
    val nSed = holdSed.count().toDouble
    val nMob = mobile.count().toDouble
    val testSize = math.min(nSed, nMob)
    fractions.map { f =>
      val sedRate = math.min(1.0, (1 - f) * testSize / nSed)
      val mobRate = math.min(1.0, f * testSize / nMob)
      holdSed.sample(withReplacement = false, sedRate, seed + (f * 100).toLong)
        .unionAll(mobile.sample(withReplacement = false, mobRate, seed + 1 + (f * 100).toLong))
    }
  }

  /** The Fig. 5(a) point of each fraction's test set in `tests`, from one
    * job grouped by fraction: the mean violation under `inv` and `baseAcc`
    * less the hit rate of `clf`. A group sums the rows a query of its test
    * set alone sums, in the same order, so each value has that query's bits.
    */
  private[exp] def mixPoints(tests: Seq[DataFrame], fractions: Seq[Double], inv: ConformanceModel,
                             clf: LogisticRegression.Model, baseAcc: Double): Seq[MixPoint] = {
    val byFraction = tests.zipWithIndex.map { case (t, i) => t.withColumn("__f", lit(i)) }.reduce(_ unionAll _)
      .groupBy("__f").agg(avg(ScoreExpr.column(inv)), avg(clf.hit("person")))
      .collect().map(r => r.getInt(0) -> (r.getDouble(1), r.getDouble(2))).toMap
    fractions.indices.map { i =>
      // A test set with no rows has no group: violation 0 and accuracy NaN, as
      // `Disynth.avgViolation` and `accuracy` read it.
      val (violation, accuracy) = byFraction.getOrElse(i, (0.0, Double.NaN))
      MixPoint(fractions(i), violation, baseAcc - accuracy)
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
  ): Seq[DriftPoint] = withCached(Har.data(spark, rowsPerPersonActivity, seed))(gradualDriftOf)

  /** Fig. 5(b) on the HAR rows `all`: one fit scan, then one grouped score. */
  private[exp] def gradualDriftOf(all: DataFrame): Seq[DriftPoint] = {
    val initial = Har.Persons.indices
      .map(i => col("person") === Har.Persons(i) && col("activity") === activityAt(i, 0))
      .reduce(_ || _)
    val disModel = Disynth.fit(Har.trainHalf(all.filter(initial)), Har.FeatureCols, Seq("person"))
    // W-PCA: DISYNTH without disjunction, the global invariant of one scan.
    driftCurve(Har.holdHalf(all), disModel, disModel.copy(disjunctive = Nil))
  }

  /** The Fig. 5(b) points from one grouped score of the held-out rows: the
    * violation sums and row count of every (person, activity) pair under
    * both models, combined on the driver into each K's average.
    */
  private[exp] def driftCurve(hold: DataFrame, dis: ConformanceModel, wpca: ConformanceModel): Seq[DriftPoint] = {
    val cells = hold.groupBy("person", "activity")
      .agg(sum(ScoreExpr.column(dis)), sum(ScoreExpr.column(wpca)), count(lit(1)))
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

  /** The Figs. 6/7 loop: [[heatmapModels]] of the train half of `all`, then
    * the held-out half scored under every model in one job grouped by
    * `rowCol`. Cell (i, j) is the violation of `labels(j)`'s data against
    * `labels(i)`'s invariants.
    */
  private[exp] def heatmap(all: DataFrame, labels: Seq[String], rowCol: String, partCol: String): Mat = {
    val avgs = heatmapModels(Har.trainHalf(all), labels, rowCol, partCol).map(m => avg(ScoreExpr.column(m)))
    val byLabel = Har.holdHalf(all).groupBy(col(rowCol)).agg(avgs.head, avgs.tail: _*)
      .collect().map(r => r.getString(0) -> r).toMap
    val n = labels.length
    Mat(n, n, Array.tabulate(n * n)(k => byLabel(labels(k % n)).getDouble(1 + k / n)))
  }

  /** Each label's invariants (disjunctive over `partCol`) on its rows of
    * `train`, from one scan grouped by `rowCol` and by the NUL-separated
    * (label, partition value) pair: bit for bit `fit` of the label's rows,
    * since a group sums the same rows in the same order. A label's slice of
    * pairs over `maxDistinct` is dropped as `fit` drops an attribute; unlike
    * `fit`, it does not count values seen only on rows with a non-finite
    * feature, which HAR never has.
    */
  private[exp] def heatmapModels(train: DataFrame, labels: Seq[String], rowCol: String, partCol: String)
      : Seq[ConformanceModel] = {
    val cfg = Disynth.Config()
    val paired = train.withColumn("__pair", concat(col(rowCol), lit("\u0000"), col(partCol)))
    val Seq(byLabel, byPair) = Moments.scan(paired, Har.FeatureCols, Seq(rowCol, "__pair")).groups.map(_.get)
    labels.map { l =>
      val slice = byPair.collect { case (k, mom) if k.startsWith(l + "\u0000") => k.drop(l.length + 1) -> mom }
      Disynth.synthesize(Moments.Scan(byLabel(l), Seq(partCol), Seq(Some(slice).filter(_.size <= cfg.maxDistinct))), cfg)
    }
  }
}
