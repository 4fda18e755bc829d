package repro.exp

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.col
import repro.{JobCounts, SparkSpec}
import repro.core.{Disynth, Reference}
import repro.data.Har
import repro.linalg.Mat
import repro.ml.LogisticRegression

/** Small-scale integration runs of the Figure 5/6/7 experiments. */
class HarExperimentsSpec extends SparkSpec with JobCounts {

  test("mixCurve (Fig 5a): violation and accuracy drop rise together, strongly correlated") {
    val res = HarExperiments.mixCurve(spark, rowsPerPersonActivity = 60,
      fractions = Seq(0.0, 0.5, 1.0))
    val v = res.points.map(_.avgViolation)
    val d = res.points.map(_.accuracyDrop)
    assert(v.zip(v.tail).forall { case (a, b) => a < b }, s"violation not increasing: $v")
    assert(d.zip(d.tail).forall { case (a, b) => a < b }, s"acc drop not increasing: $d")
    assert(v.head < 0.05, s"no-mobile violation ${v.head}")
    assert(d.last > 0.3, s"full-mobile accuracy drop ${d.last}")
    assert(res.pcc > 0.9, s"pcc ${res.pcc}")
  }

  test("gradualDrift (Fig 5b): DISYNTH tracks local drift, W-PCA stays flat") {
    val pts = HarExperiments.gradualDrift(spark, rowsPerPersonActivity = 400)
    assert(pts.map(_.k) == (0 to 15))
    val dis = pts.map(_.disynth)
    val wp = pts.map(_.wpca)
    // DISYNTH: starts near zero, grows substantially, non-decreasing overall.
    assert(dis.head < 0.05, s"K=0 violation ${dis.head}")
    assert(dis.last > 0.25, s"K=15 violation ${dis.last}")
    assert(dis.zip(dis.tail).forall { case (a, b) => b >= a - 0.02 }, s"not monotone: $dis")
    // W-PCA: the global mixture never changes — flat, and far below DISYNTH.
    assert(wp.max - wp.min < 0.05, s"W-PCA moved: $wp")
    assert(dis.last > 4 * wp.last + 0.1, s"DISYNTH ${dis.last} vs W-PCA ${wp.last}")
  }

  /** HAR rows on a fixed partition count, so job counts and sums are the
    * same at any local[N]; cached and materialized.
    */
  private def withFixedHar[T](body: DataFrame => T): T = {
    val all = Har.data(spark, rowsPerPersonActivity = 20).repartition(4).cache()
    try { all.count(); body(all) } finally all.unpersist()
  }

  test("mixCurve (Fig 5a) scores every fraction in one grouped job, bit for bit the per-fraction loop") {
    withFixedHar { all =>
      val sedentary = all.filter(col("activity").isin(Har.Sedentary: _*))
      val mobile = all.filter(col("activity").isin(Har.Mobile: _*))
      val (train, hold) = (Har.trainHalf(sedentary), Har.holdHalf(sedentary))
      val inv = Disynth.fit(train, Har.FeatureCols, Seq("activity"))
      val clf = LogisticRegression.fit(train, Har.FeatureCols, "person")
      val baseAcc = clf.accuracy(hold, "person")
      val fractions = Seq(0.0, 0.5, 1.0)
      val tests = HarExperiments.mixTests(hold, mobile, fractions, 7)
      var points: Seq[HarExperiments.MixPoint] = Nil
      // One grouped aggregate, a map-stage job and a result job, at any
      // number of fractions.
      assert(jobsAndStages { points = HarExperiments.mixPoints(tests, fractions, inv, clf, baseAcc) } == (2, 2))
      // The reference: each fraction's test set scored on its own.
      val want = fractions.zip(tests).map { case (f, t) =>
        HarExperiments.MixPoint(f, Disynth.avgViolation(t, inv), baseAcc - clf.accuracy(t, "person"))
      }
      def bits(p: HarExperiments.MixPoint): Seq[Long] =
        Seq(p.mobileFraction, p.avgViolation, p.accuracyDrop).map(java.lang.Double.doubleToRawLongBits)
      assert(points.map(bits) == want.map(bits))
    }
  }

  test("gradualDrift (Fig 5b) scores every K in one grouped job") {
    withFixedHar { all =>
      val dis = Disynth.fit(Har.trainHalf(all), Har.FeatureCols, Seq("person"))
      var pts: Seq[HarExperiments.DriftPoint] = Nil
      // One grouped aggregate, a map-stage job and a result job, at any
      // number of fractions.
      assert(jobsAndStages { pts = HarExperiments.driftCurve(Har.holdHalf(all), dis, dis.copy(disjunctive = Nil)) } == (2, 2))
      assert(pts.map(_.k) == (0 to Har.Persons.length))
    }
  }

  test("gradualDrift (Fig 5b): W-PCA is the global invariant of the DISYNTH fit, bit for bit") {
    withFixedHar { all =>
      val train = Har.trainHalf(all)
      val wpca = Disynth.fit(train, Har.FeatureCols, Seq("person")).copy(disjunctive = Nil)
      assert(Reference.sameModel(wpca, Disynth.fit(train, Har.FeatureCols)))
    }
  }

  test("gradualDrift (Fig 5b) runs one fit scan and one grouped score") {
    withFixedHar { all =>
      var pts: Seq[HarExperiments.DriftPoint] = Nil
      assert(jobsAndStages { pts = HarExperiments.gradualDriftOf(all) } == (3, 3))
      assert(pts.map(_.k) == (0 to Har.Persons.length))
    }
  }

  test("every heat-map model equals the per-label fit bit for bit") {
    withFixedHar { all =>
      for ((labels, rowCol, partCol) <- Seq((Har.Persons, "person", "activity"), (Har.Activities, "activity", "person"))) {
        val models = HarExperiments.heatmapModels(Har.trainHalf(all), labels, rowCol, partCol)
        labels.zip(models).foreach { case (l, model) =>
          // The reference: one fit per label, as the heat maps ran before.
          val perLabel = Disynth.fit(Har.trainHalf(all.filter(col(rowCol) === l)), Har.FeatureCols, Seq(partCol))
          assert(model.partitionAttrs == Seq(partCol))
          assert(Reference.sameModel(model, perLabel), s"$rowCol $l")
        }
      }
    }
  }

  test("a heat map runs one fit scan and one grouped score") {
    withFixedHar { all =>
      var m: Mat = null
      assert(jobsAndStages { m = HarExperiments.heatmap(all, Har.Persons, "person", "activity") } == (3, 3))
      assert(m.rows == Har.Persons.length)
    }
  }

  test("interPerson (Fig 6): self-violation is near zero, cross-violation substantial") {
    val somePersons = Seq("p1", "p2", "p3", "p8", "p9")
    val (labels, m) = HarExperiments.interPerson(spark, rowsPerPersonActivity = 400,
      persons = somePersons)
    assert(labels == somePersons)
    val diag = labels.indices.map(i => m(i, i))
    val off = for (i <- labels.indices; j <- labels.indices if i != j) yield m(i, j)
    assert(diag.max < 0.1, s"self-violation too high: $diag")
    assert(off.min > diag.max, "some cross-violation below a self-violation")
    assert(off.sum / off.size > 0.15, s"mean cross-violation ${off.sum / off.size}")
  }

  test("interPerson (Fig 6): outlier persons (low fitness / obese) stand out") {
    val ps = Seq("p1", "p2", "p3", "p4")
    val (labels, m) = HarExperiments.interPerson(spark, rowsPerPersonActivity = 400, persons = ps)
    val i3 = labels.indexOf("p3") // outlier: doubled offsets
    val others = labels.indices.filter(_ != i3)
    val outlierRow = others.map(j => m(i3, j)).sum / others.size
    val normalRows = for (i <- others; j <- others if i != j) yield m(i, j)
    assert(outlierRow > normalRows.sum / normalRows.size,
      s"outlier row mean $outlierRow vs normal ${normalRows.sum / normalRows.size}")
  }

  test("interActivity (Fig 7): mobile data violates sedentary invariants, not vice versa") {
    val (labels, m) = HarExperiments.interActivity(spark, rowsPerPersonActivity = 400)
    assert(labels == Har.Activities)
    def v(model: String, data: String): Double = m(labels.indexOf(model), labels.indexOf(data))
    // Self-violation near zero.
    Har.Activities.foreach(a => assert(v(a, a) < 0.1, s"self $a = ${v(a, a)}"))
    // Asymmetry: running violates each sedentary invariant far more than
    // sedentary data violates running's (its envelope covers them).
    Har.Sedentary.foreach { sed =>
      assert(v(sed, "running") > v("running", sed) + 0.2,
        s"$sed←running ${v(sed, "running")} vs running←$sed ${v("running", sed)}")
      assert(v("running", sed) < 0.15, s"running's envelope should cover $sed: ${v("running", sed)}")
    }
    // Sedentary activities are mutually distinct (tight, separated clusters).
    assert(v("lying", "standing") > 0.3 && v("standing", "lying") > 0.3)
  }
}
