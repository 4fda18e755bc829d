package repro.drift

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.col
import repro.SparkSpec
import repro.core.Disynth
import repro.linalg.Mat
import repro.stats.Moments

class DriftBaselinesSpec extends SparkSpec {

  import spark.implicits._

  private def gauss(n: Int, cx: Double, cy: Double, sigma: Double, seed: Int): DataFrame = {
    val rnd = new scala.util.Random(seed)
    (1 to n).map(_ => (cx + rnd.nextGaussian() * sigma, cy + rnd.nextGaussian() * sigma))
      .toDF("x", "y")
  }

  // Two clusters rotating around the origin: global mixture is stable.
  private def twoClusterRotation(n: Int, angle: Double, seed: Int): DataFrame = {
    val rnd = new scala.util.Random(seed)
    val r = 5.0
    (1 to n).map { i =>
      val base = if (i % 2 == 0) angle else angle + math.Pi
      (r * math.cos(base) + rnd.nextGaussian(), r * math.sin(base) + rnd.nextGaussian())
    }.toDF("x", "y")
  }

  // ---------------- PCA-SPLL ----------------

  test("PCA-SPLL: identical distribution yields a small, stable statistic") {
    val ref = gauss(2000, 0, 0, 1, 1)
    val model = PcaSpll.fit(Moments.of(ref, Seq("x", "y")))
    val same = PcaSpll.drift(gauss(2000, 0, 0, 1, 2), model)
    // Mean Mahalanobis² per retained component ≈ 1.
    assert(same < 3.0)
  }

  test("PCA-SPLL: a mean shift raises the statistic sharply") {
    val ref = gauss(2000, 0, 0, 1, 3)
    val model = PcaSpll.fit(Moments.of(ref, Seq("x", "y")))
    val base = PcaSpll.drift(gauss(1000, 0, 0, 1, 4), model)
    val shifted = PcaSpll.drift(gauss(1000, 6, 0, 1, 5), model)
    assert(shifted > 5 * base, s"base=$base shifted=$shifted")
  }

  test("PCA-SPLL: drift grows monotonically with displacement") {
    val ref = gauss(2000, 0, 0, 1, 6)
    val model = PcaSpll.fit(Moments.of(ref, Seq("x", "y")))
    val scores = Seq(0.0, 2.0, 4.0, 8.0).map(d => PcaSpll.drift(gauss(800, d, d, 1, 7), model))
    assert(scores.zip(scores.tail).forall { case (a, b) => a < b })
  }

  test("PCA-SPLL retains the low-variance tail of components") {
    val rnd = new scala.util.Random(8)
    // x wide, y narrow: the retained component must be y-dominated.
    val ref = (1 to 2000).map(_ => (rnd.nextGaussian() * 10, rnd.nextGaussian() * 0.5)).toDF("x", "y")
    val model = PcaSpll.fit(Moments.of(ref, Seq("x", "y")), varianceFraction = 0.25)
    assert(model.components.nonEmpty)
    // After standardization both axes have unit variance; with a fraction of
    // 25% only the single lowest-variance component is retained.
    assert(model.components.length == 1)
  }

  test("PCA-SPLL is blind to local drift in a stable global mixture (paper's failure mode)") {
    val model = PcaSpll.fit(Moments.of(twoClusterRotation(3000, 0.0, 9), Seq("x", "y")))
    val base = PcaSpll.drift(twoClusterRotation(1500, 0.0, 10), model)
    // Rotating by π maps the mixture onto itself: no global change visible.
    val rotated = PcaSpll.drift(twoClusterRotation(1500, math.Pi, 11), model)
    assert(rotated < 2 * base + 1.0, s"base=$base rotated=$rotated")
  }

  // ---------------- CD (MKL / Area) ----------------

  test("CD: identical distribution yields near-zero divergence") {
    val ref = gauss(3000, 0, 0, 1, 12)
    val model = ChangeDetection.fit(ref, Moments.of(ref, Seq("x", "y")))
    val mkl = ChangeDetection.drift(gauss(3000, 0, 0, 1, 13), model, ChangeDetection.MKL)
    val area = ChangeDetection.drift(gauss(3000, 0, 0, 1, 14), model, ChangeDetection.Area)
    assert(mkl < 0.5, s"mkl=$mkl")
    assert(area < 0.15, s"area=$area")
  }

  test("CD: a mean shift is detected by both metrics") {
    val ref = gauss(3000, 0, 0, 1, 15)
    val model = ChangeDetection.fit(ref, Moments.of(ref, Seq("x", "y")))
    val mkl = ChangeDetection.drift(gauss(3000, 5, 0, 1, 16), model, ChangeDetection.MKL)
    val area = ChangeDetection.drift(gauss(3000, 5, 0, 1, 17), model, ChangeDetection.Area)
    assert(mkl > 2.0, s"mkl=$mkl")
    assert(area > 0.7, s"area=$area")
  }

  test("CD-Area saturates once windows stop overlapping (cannot quantify)") {
    val ref = gauss(2000, 0, 0, 1, 18)
    val model = ChangeDetection.fit(ref, Moments.of(ref, Seq("x", "y")))
    val far = ChangeDetection.drift(gauss(2000, 8, 0, 1, 19), model, ChangeDetection.Area)
    val farther = ChangeDetection.drift(gauss(2000, 16, 0, 1, 20), model, ChangeDetection.Area)
    // Both are ≈ 1: Area cannot distinguish 8σ from 16σ displacement.
    assert(far > 0.95 && farther > 0.95)
    assert(math.abs(far - farther) < 0.05)
  }

  test("CD histograms are insensitive to class-label-only (local) drift") {
    val ref = twoClusterRotation(3000, 0.0, 21)
    val model = ChangeDetection.fit(ref, Moments.of(ref, Seq("x", "y")))
    val rotated = ChangeDetection.drift(twoClusterRotation(3000, math.Pi, 22), model, ChangeDetection.Area)
    assert(rotated < 0.2, s"rotated=$rotated")
  }

  // ---------------- Column statistics ----------------

  private def bits(v: Double): Long = java.lang.Double.doubleToRawLongBits(v)

  // Offset and scaled attributes, so no z-score or dot product is trivial;
  // three of them, so a dot product's summation order shows in its bits.
  private val xyv = Seq("x", "y", "v")
  private lazy val skewed = {
    val rnd = new scala.util.Random(26)
    (1 to 600).map { _ =>
      val a = rnd.nextGaussian()
      (3e3 + 40 * a, -7.0 + 0.3 * a + 0.2 * rnd.nextGaussian(), 1e-3 * rnd.nextGaussian() - 2 * a)
    }.toDF("x", "y", "v")
  }

  // A frame with a null row, a NaN row, a +∞ row and a −∞ row after the
  // clean rows; the clean rows keep their partitions, so every sum meets
  // them in the same order.
  private def withDirtyRows(df: DataFrame): DataFrame =
    df.union(Seq[(Option[Double], Double, Double)]((None, 1.0, 0.0), (Some(Double.NaN), 2.0, 0.0),
      (Some(Double.PositiveInfinity), 3.0, 0.0), (Some(Double.NegativeInfinity), 4.0, 0.0)).toDF("x", "y", "v"))

  test("PCA-SPLL columns equal a plain-Scala reference bit for bit") {
    val model = PcaSpll.fit(Moments.of(skewed, xyv), varianceFraction = 1.5)
    assert(model.components.length == 3)
    val rows = skewed.select((xyv.map(col) :+ model.statistic): _*).collect()
    rows.foreach { r =>
      val zx = model.z(Array.tabulate(3)(r.getDouble))
      val p = model.components.map(Mat.dot(_, zx))
      var m2 = 0.0
      p.indices.foreach(k => m2 += p(k) * p(k) / model.variances(k))
      assert(bits(r.getDouble(3)) == bits(m2), s"statistic of $r")
    }
  }

  test("CD score columns equal a plain-Scala reference bit for bit") {
    val model = ChangeDetection.fit(skewed, Moments.of(skewed, xyv))
    assert(model.components.nonEmpty)
    val rows = model.withScores(skewed).collect()
    rows.foreach { r =>
      val zx = model.z(Array.tabulate(3)(r.getDouble))
      model.components.indices.foreach { k =>
        assert(bits(r.getDouble(3 + k)) == bits(Mat.dot(model.components(k), zx)), s"score $k of $r")
      }
    }
  }

  test("CD bin counts equal a plain-Scala reference bit for bit") {
    val model = ChangeDetection.fit(skewed, Moments.of(skewed, xyv))
    // Far enough that some rows fall off the histogram range.
    val shifted = skewed.select((col("x") + 300).as("x"), col("y"), col("v"))
    val counts = model.withScores(shifted).agg(model.binCounts.head, model.binCounts.tail: _*).head()
    val expected = Array.fill(model.components.length, model.bins)(0.0)
    shifted.collect().foreach { r =>
      val zx = model.z(Array.tabulate(3)(r.getDouble))
      model.components.indices.foreach { k =>
        val p = Mat.dot(model.components(k), zx)
        val width = (model.hi(k) - model.lo(k)) / model.bins
        val bin = (0 until model.bins).find { b =>
          val top = if (b == model.bins - 1) model.hi(k) + 1e-12 else model.lo(k) + (b + 1) * width
          p >= model.lo(k) + b * width && p < top
        }
        bin.foreach(b => expected(k)(b) += 1.0)
      }
    }
    val flat = expected.flatten
    assert(flat.sum > 0 && flat.sum < shifted.count() * model.components.length)
    flat.indices.foreach(i => assert(bits(counts.getDouble(i)) == bits(flat(i)), s"bin count $i"))
  }

  /** Every double of a CD model, as raw bits. */
  private def cdBits(m: ChangeDetection.Model): Seq[Long] =
    (Seq(m.z.means, m.z.stds, m.lo, m.hi) ++ m.components ++ m.refHist).flatMap(_.map(bits))

  test("null, NaN and infinite rows leave PCA-SPLL and CD bit-identical") {
    val spll = PcaSpll.fit(Moments.of(skewed, xyv))
    val cd = ChangeDetection.fit(skewed, Moments.of(skewed, xyv))
    val window = skewed.select((col("x") + 20).as("x"), col("y"), col("v"))
    val dirty = withDirtyRows(window)
    assert(dirty.count() == window.count() + 4)
    assert(bits(PcaSpll.drift(dirty, spll)) == bits(PcaSpll.drift(window, spll)))
    Seq(ChangeDetection.MKL, ChangeDetection.Area).foreach { metric =>
      assert(bits(ChangeDetection.drift(dirty, cd, metric)) == bits(ChangeDetection.drift(window, cd, metric)), s"$metric")
    }
    val dirtyRef = withDirtyRows(skewed)
    assert(cdBits(ChangeDetection.fit(dirtyRef, Moments.of(dirtyRef, xyv))) == cdBits(cd))
  }

  test("CD drift of an empty window is 0, as PCA-SPLL's is") {
    val cd = ChangeDetection.fit(skewed, Moments.of(skewed, xyv))
    val empty = skewed.limit(0)
    Seq(ChangeDetection.MKL, ChangeDetection.Area).foreach { metric =>
      assert(ChangeDetection.drift(empty, cd, metric) == 0.0, s"$metric")
    }
    assert(PcaSpll.drift(empty, PcaSpll.fit(Moments.of(skewed, xyv))) == 0.0)
  }

  test("CD fit rejects an empty reference window") {
    val empty = skewed.limit(0)
    val e = intercept[IllegalArgumentException](ChangeDetection.fit(empty, Moments.of(empty, xyv)))
    assert(e.getMessage.contains("empty reference window"))
  }

  // ---------------- W-PCA ----------------

  test("W-PCA is Disynth without partitions: flags global drift") {
    val ref = gauss(2000, 0, 0, 1, 23)
    val model = Disynth.fit(ref, Seq("x", "y"))
    assert(model.disjunctive.isEmpty)
    assert(Disynth.avgViolation(gauss(1000, 0, 0, 1, 24), model) < 0.02)
    assert(Disynth.avgViolation(gauss(1000, 10, 10, 1, 25), model) > 0.3)
  }
}
