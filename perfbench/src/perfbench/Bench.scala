package perfbench

import scala.collection.mutable
import scala.util.control.NonFatal
import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.NumericType
import repro.core.{ConformanceModel, Disynth, PcaSynth}
import repro.explain.ExTuNe
import repro.linalg.Eigen
import repro.stats.Moments

/** Result of one score op: the scored rows and the violation's mean, min
  * and max, all from the one aggregate that consumes `Disynth.score`.
  */
final case class ScoreStats(rows: Long, avg: Double, min: Double, max: Double)

/** The inputs a workload set up, and what it runs on them. */
trait Prepared {
  /** One timed cycle of fit, score and explain ops. */
  def cycle(b: Bench): Unit

  /** Direct calls into each layer, run after a traced cycle. */
  def probes(b: Bench): Unit
}

trait Workload {
  def prepare(b: Bench, seed: Long): Prepared
}

/** Runs ops: each one is a call into the library plus a check of its
  * output. An op fails if the call throws or the check finds a problem;
  * failures are counted and kept, never dropped.
  *
  * @param fault `Some("score")` corrupts every score result before its
  *              check, to show that a failed check is counted
  */
final class Bench(val spark: SparkSession, val tracer: Tracer, fault: Option[String]) {
  var attempted = 0L
  var failed = 0L
  val failures: mutable.ArrayBuffer[String] = mutable.ArrayBuffer.empty

  // Work of the current cycle, reset by the runner.
  var fitRows = 0L
  var scoreRows = 0L
  var explainTuples = 0L
  val notes: mutable.HashMap[String, Double] = mutable.HashMap.empty

  /** Generator outputs of the current set-up, before caching, and the
    * cached tables.
    */
  val raw: mutable.ArrayBuffer[DataFrame] = mutable.ArrayBuffer.empty
  private val cached = mutable.ArrayBuffer.empty[DataFrame]

  def note(key: String, x: Double): Unit = notes(key) = notes.getOrElse(key, 0.0) + x

  private def fail(what: String, problems: Seq[String]): Unit = {
    failed += 1
    record(s"$what: ${problems.mkString("; ")}")
  }

  private def record(failure: String): Unit = {
    failures += failure
    Console.err.println(s"[perfbench] FAILED $failure")
  }

  /** Run one op; the value is returned whenever the call did not throw. */
  def op[T](kind: String, label: String, call: String)(run: => T)(check: T => Seq[String]): Option[T] = {
    attempted += 1
    tracer.span(s"op.$kind") {
      val res = try Right(tracer.span(call)(run)) catch { case NonFatal(e) => Left(e) }
      val problems = res match {
        case Right(v) =>
          tracer.span("check")(try check(v) catch { case NonFatal(e) => Seq(s"check threw $e") })
        case Left(e) => Seq(s"threw $e")
      }
      if (problems.nonEmpty) fail(s"$kind $label", problems)
      res.toOption
    }
  }

  /** Count ops that could not run because an op they depend on threw. */
  def refuse(n: Int, why: String): Unit = {
    attempted += n
    failed += n
    record(s"$n ops not run: $why")
  }

  /** Generate, cache and materialize one input table; returns it and its row count. */
  def generate(name: String)(df: DataFrame): (DataFrame, Long) = {
    raw += df
    tracer.span("data.generate")(materialize(name, df))
  }

  /** Cache and materialize a table derived from generated ones. */
  def derive(name: String)(df: DataFrame): (DataFrame, Long) =
    tracer.span("data.derive")(materialize(name, df))

  /** Per table of the current set-up: row count and the sum of every
    * numeric column in millionths (exact, so independent of summation order).
    */
  val prints: mutable.LinkedHashMap[String, String] = mutable.LinkedHashMap.empty

  /** Cache `df`; the action that materializes the cache also computes the
    * table's fingerprint, so the fingerprint costs no extra pass.
    */
  private def materialize(name: String, df: DataFrame): (DataFrame, Long) = {
    val c = df.cache()
    cached += c
    val numeric = c.schema.fields.collect { case f if f.dataType.isInstanceOf[NumericType] => f.name }
    val r = c.agg(count(lit(1)), numeric.toIndexedSeq.map(x => sum(round(col(x) * 1e6).cast("long"))): _*).head()
    prints(name) = (0 until r.length).map(i => String.valueOf(r.get(i))).mkString(",")
    (c, r.getLong(0))
  }

  /** Drop the current set-up's inputs. */
  def release(): Unit = {
    cached.foreach(_.unpersist())
    cached.clear(); raw.clear(); prints.clear()
  }

  /** Input fingerprint of the current set-up: the partition count of every
    * generator output and every table's sums. The same seed must give the
    * same fingerprint on any machine.
    */
  def fingerprint: String =
    (raw.map(_.rdd.getNumPartitions).mkString("partitions=", ",", "") +:
      prints.map { case (k, v) => s"$k=$v" }.toSeq).mkString(";")

  def fit(label: String, call: String, rows: Long)(run: => ConformanceModel)(
      check: ConformanceModel => Seq[String]): Option[ConformanceModel] = {
    fitRows += rows
    op("fit", label, call)(run)(check)
  }

  def score(label: String, df: DataFrame, rows: Long, model: ConformanceModel)(
      check: ScoreStats => Seq[String]): Option[ScoreStats] = {
    scoreRows += rows
    op("score", label, "core.score") {
      val r = Disynth.score(df, model, "__v")
        .agg(count(lit(1)), avg("__v"), min("__v"), max("__v")).head()
      val s = ScoreStats(r.getLong(0), r.getDouble(1), r.getDouble(2), r.getDouble(3))
      if (fault.contains("score")) s.copy(max = s.max + 2) else s
    } { s =>
      val base = Seq(
        if (s.rows != rows) Some(s"scored ${s.rows} rows, expected $rows") else None,
        if (!(s.min >= 0 && s.max <= 1)) Some(f"violation outside [0,1]: min ${s.min}%.4g max ${s.max}%.4g")
        else None,
      ).flatten
      base ++ check(s)
    }
  }

  def explain(label: String, df: DataFrame, model: ConformanceModel, tuples: Int)(
      check: Seq[(String, Double)] => Seq[String]): Option[Seq[(String, Double)]] = {
    explainTuples += tuples
    op("explain", label, "explain.aggregate")(ExTuNe.aggregate(df, model, tuples)) { r =>
      val base = Seq(
        if (r.map(_._1) != model.numericCols) Some("responsibilities not in model column order") else None,
        if (!r.forall { case (_, v) => v >= 0 && v <= 1 }) Some("responsibility outside [0,1]") else None,
      ).flatten
      base ++ check(r)
    }
  }

  // ---- per-layer probes (traced run only) ----

  /** Call each layer under a fit directly: the moments scans, the
    * eigensolve, synthesis of every branch, and `other`, the fit entry
    * point the op did not use.
    */
  def probeFit(train: DataFrame, numeric: Seq[String], partCol: String, model: ConformanceModel,
      otherCall: String)(other: => ConformanceModel): Unit = {
    val mom = tracer.span("stats.moments_of")(Moments.of(train, numeric))
    val groups = tracer.span("stats.moments_bygroup")(Moments.byGroup(train, numeric, partCol))
    tracer.span("linalg.eigen")(Eigen.symmetric(mom.augmentedGram))
    val cfg = Disynth.Config().pca
    tracer.span("core.synth") {
      PcaSynth.simpleInvariant(mom, cfg)
      groups.values.foreach(PcaSynth.simpleInvariant(_, cfg))
    }
    tracer.span(otherCall)(other)
    val branches = model.global +: model.disjunctive.flatMap(_.cases.values)
    note("core.branches", branches.size)
    note("core.conjuncts", branches.map(_.inv.conjuncts.size).sum)
  }

  /** Time, on the tuples `ExTuNe.aggregate(df, model, tuples)` samples, the
    * driver-side violation kernel and the per-tuple responsibility.
    */
  def probeExplain(df: DataFrame, model: ConformanceModel, tuples: Int): Unit = {
    val attrs = model.partitionAttrs
    val rows = tracer.span("explain.collect") {
      df.select((model.numericCols ++ attrs).map(col): _*).limit(tuples).collect()
    }
    val m = model.numericCols.length
    val sample = rows.map { r: Row =>
      val x = Array.tabulate(m)(i => if (r.isNullAt(i)) Double.NaN else r.get(i).asInstanceOf[Number].doubleValue)
      val p = attrs.indices.map(j => attrs(j) -> Option(r.get(m + j)).map(_.toString)).toMap
      (p, x)
    }
    var calls = 0L
    var violating = 0
    tracer.span("core.violation") {
      val t0 = System.nanoTime
      while (calls == 0 || System.nanoTime - t0 < 20000000L) {
        violating = 0
        sample.foreach { case (p, x) => if (model.violation(p, x) > ExTuNe.ConformEps) violating += 1 }
        calls += sample.length
      }
    }
    tracer.span("explain.tuples")(sample.foreach { case (p, x) => ExTuNe.tupleResponsibility(model, p, x) })
    note("core.violation_calls", calls)
    note("explain.tuples", sample.length)
    note("explain.violating", violating)
  }
}

object Bench {
  /** Partition count of every generated input, independent of local[N]:
    * the generators draw per-partition random streams, so pinning it is
    * what makes one seed give one input on every machine.
    */
  val InputPartitions = 8
}
