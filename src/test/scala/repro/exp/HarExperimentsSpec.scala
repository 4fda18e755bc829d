package repro.exp

import repro.{JobCounts, SparkSpec}
import repro.core.Disynth
import repro.data.Har

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

  test("gradualDrift (Fig 5b) scores every K in one grouped job") {
    // A fixed partition count, so the job count is the same at any local[N].
    val all = Har.data(spark, rowsPerPersonActivity = 20).repartition(4).cache()
    try {
      val dis = Disynth.fit(Har.trainHalf(all), Har.FeatureCols, Seq("person"))
      val wpca = Disynth.fit(Har.trainHalf(all), Har.FeatureCols)
      var pts: Seq[HarExperiments.DriftPoint] = Nil
      // One grouped aggregate: a map-stage job and a result job.
      assert(jobsAndStages { pts = HarExperiments.driftCurve(Har.holdHalf(all), dis, wpca) } == (2, 2))
      assert(pts.map(_.k) == (0 to Har.Persons.length))
    } finally all.unpersist()
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
