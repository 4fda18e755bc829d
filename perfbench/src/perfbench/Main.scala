package perfbench

import java.io.{File, PrintWriter}
import java.lang.management.{ManagementFactory, MemoryType}
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import org.apache.spark.sql.SparkSession

/** Entry point, started by perfbench/run.py:
  *
  * {{{
  * Main --workload <name> --seed <n> --seconds <s> --trace <0|1> --out <dir>
  *      [--size full|tiny] [--fault score] [--git-sha <sha>] [--src-lines <n>]
  * }}}
  *
  * Prints a span summary (traced runs), one `env` line, and as its last line
  * the result JSON; writes the result and the spans under `<out>`.
  */
object Main {
  /** Executor threads of the one local JVM: all cores but one, at most 2.
    * The spare cores run the driver thread, the JIT and the GC. On a shared
    * 4-vCPU VM, with every core given to executors, run-to-run times spread
    * about three times wider, and 4 busy threads each saw stalls of up to
    * 4x their normal time where 2 saw none.
    */
  def executorThreads(nproc: Int): Int = math.max(1, math.min(2, nproc - 1))
  val SetupReps = 3
  /** Warm-up before measuring, for at least this long and this many cycles.
    * airlines-score cycles fell from 1.6 s to 1.0 s over the first 10 s of
    * a run; wide-fit cycles fell from 12 s to 7 s over the first 4, so its
    * first measured cycle is still slow and the median of 3 skips it. A
    * third warm-up cycle would cost 8-12 s a run, which the time limit of
    * all runs together does not leave.
    */
  val WarmupSeconds = 10.0
  val WarmupCycles = 2
  /** A round during which the hypervisor stole more than this share of the
    * machine's CPU time is disturbed, and left out of the metrics when
    * enough quiet rounds remain. On the shared 4-vCPU VM used here, quiet
    * stretches read 0.1-1.3% and a busy host 2.5-12%, with every op up to
    * 1.6x slower.
    */
  val MaxSteal = 0.02

  final case class Opts(
      workload: String, seed: Long, seconds: Double, trace: Boolean, out: File,
      size: String, fault: Option[String], gitSha: String, srcLines: Long)

  def parse(args: Array[String]): Opts = {
    val kv = args.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => throw new IllegalArgumentException(s"bad arguments: ${other.mkString(" ")}")
    }.toMap
    def req(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    Opts(req("workload"), req("seed").toLong, req("seconds").toDouble, req("trace") == "1",
      new File(req("out")), kv.getOrElse("size", "full"), kv.get("fault"),
      kv.getOrElse("git-sha", "unknown"), kv.getOrElse("src-lines", "-1").toLong)
  }

  def main(args: Array[String]): Unit = {
    val o = parse(args)
    val workload = Workloads(o.workload, o.size)
    val cores = executorThreads(Runtime.getRuntime.availableProcessors)
    val spark = SparkSession.builder
      .master(s"local[$cores]")
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", new File(o.out, "spark-local").getAbsolutePath)
      .config("spark.sql.warehouse.dir", new File(o.out, "warehouse").getAbsolutePath)
      // As the repo's SparkSpec and JobSession configure their sessions.
      .config("spark.sql.shuffle.partitions", "64")
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .config("spark.sql.leafNodeDefaultParallelism", Bench.InputPartitions.toString)
      .getOrCreate()
    spark.sparkContext.setLogLevel("WARN")
    val code =
      try {
        val r = Runner.run(spark, workload, o)
        val env = environment(spark, o, cores) + ("input_fingerprint" -> r.fingerprint)
        val result = mutable.LinkedHashMap[String, Any](
          "correct" -> (r.failed == 0), "attempted" -> r.attempted, "failed" -> r.failed,
          "metrics" -> mutable.LinkedHashMap(r.metrics.map { case (k, (v, u)) =>
            k -> mutable.LinkedHashMap[String, Any]("value" -> v, "unit" -> u) }: _*))
        write(new File(o.out, s"results/${o.workload}-seed${o.seed}-trace${if (o.trace) 1 else 0}.json"),
          Json(Map("env" -> env, "result" -> result, "failures" -> r.failures, "raw" -> r.raw)))
        println("env " + Json(env))
        println(Json(result))
        0
      } catch {
        case e: Throwable => e.printStackTrace(); 1
      } finally spark.stop()
    sys.exit(code)
  }

  def environment(spark: SparkSession, o: Opts, cores: Int): Map[String, Any] = Map(
    "workload" -> o.workload, "seed" -> o.seed, "seconds" -> o.seconds, "trace" -> o.trace, "size" -> o.size,
    "git_sha" -> o.gitSha, "src_main_lines" -> o.srcLines,
    "nproc" -> Runtime.getRuntime.availableProcessors, "master" -> spark.sparkContext.master,
    "cores" -> cores, "driver_heap_mb" -> Runtime.getRuntime.maxMemory / (1 << 20),
    "java" -> System.getProperty("java.version"), "scala" -> scala.util.Properties.versionNumberString,
    "spark" -> spark.version,
    "spark_conf" -> spark.sparkContext.getConf.getAll
      .filterNot { case (k, _) => k == "spark.app.id" || k == "spark.app.startTime" || k == "spark.driver.port" }
      .sorted.toMap)

  def write(f: File, text: String): Unit = {
    f.getParentFile.mkdirs()
    val w = new PrintWriter(f, "UTF-8")
    try w.println(text) finally w.close()
  }
}

/** One run: set up the inputs several times, warm up, then measure cycles
  * for the given seconds, at least 3. A traced run alternates untraced and
  * traced cycles, at least 2 of each, and runs the layer probes after each
  * traced cycle.
  */
object Runner {
  final case class Result(
      metrics: Seq[(String, (Double, String))], attempted: Long, failed: Long, failures: Seq[String],
      fingerprint: String, raw: Map[String, Any])

  private final case class Cycle(wallNs: Long, sums: Map[String, Long], fitRows: Long, scoreRows: Long,
      explainTuples: Long, notes: Map[String, Double], traced: Boolean, steal: Double)

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.isEmpty) Double.NaN
    else if (s.length % 2 == 1) s(s.length / 2) else (s(s.length / 2 - 1) + s(s.length / 2)) / 2
  }

  def run(spark: SparkSession, workload: Workload, o: Main.Opts): Result = {
    val tracer = new Tracer(spark)
    val b = new Bench(spark, tracer, o.fault)
    val phases = mutable.LinkedHashMap[String, Double](
      "jvm_start_to_run_s" -> (System.currentTimeMillis - ManagementFactory.getRuntimeMXBean.getStartTime) / 1e3)
    def phase[T](name: String)(body: => T): T = {
      val t0 = System.nanoTime
      try body finally phases(name) = phases.getOrElse(name, 0.0) + (System.nanoTime - t0) / 1e9
    }

    // Set-up, several times; the last one's inputs are kept.
    val setupS = mutable.ArrayBuffer.empty[Double]
    val generateS = mutable.ArrayBuffer.empty[Double]
    var prepared: Prepared = null
    var firstPrint: String = null
    for (rep <- 1 to Main.SetupReps) {
      b.release()
      val t0 = System.nanoTime
      prepared = workload.prepare(b, o.seed)
      setupS += (System.nanoTime - t0) / 1e9
      generateS += tracer.take().getOrElse("data.generate", 0L) / 1e9
      b.op("input", s"set-up $rep", "input.fingerprint")(b.fingerprint) { fp =>
        val partitions = b.raw.map(_.rdd.getNumPartitions).distinct
        if (firstPrint == null) firstPrint = fp
        Seq(
          if (partitions != Seq(Bench.InputPartitions)) Some(s"input partitions $partitions") else None,
          if (fp != firstPrint) Some("input differs from the first set-up of this seed") else None,
        ).flatten
      }
    }
    tracer.take()

    def cycle(traced: Boolean): Cycle = {
      b.fitRows = 0; b.scoreRows = 0; b.explainTuples = 0; b.notes.clear()
      tracer.record(traced)
      val cpu0 = HostCpu.sample()
      val t0 = System.nanoTime
      tracer.span("cycle")(prepared.cycle(b))
      val wall = System.nanoTime - t0
      val steal = HostCpu.stealShare(cpu0, HostCpu.sample())
      if (traced) tracer.span("probes")(prepared.probes(b))
      tracer.record(false)
      Cycle(wall, tracer.take(), b.fitRows, b.scoreRows, b.explainTuples, b.notes.toMap, traced, steal)
    }

    /** Rounds for `seconds`, at least `minRounds`; a round is one cycle, or
      * with `paired` an untraced cycle and a traced one. Returns every cycle
      * run, and the cycles of the quiet rounds (see [[Main.MaxSteal]]) if
      * there are `minRounds` of them, else again every cycle.
      */
    def measure(seconds: Double, minRounds: Int, paired: Boolean = false): (Seq[Cycle], Seq[Cycle]) = {
      val rounds = mutable.ArrayBuffer.empty[Seq[Cycle]]
      val t0 = System.nanoTime
      var last = 0L
      // Start another round only if it should end within the window.
      while (rounds.size < minRounds || (System.nanoTime - t0 + last) / 1e9 <= seconds) {
        val r0 = System.nanoTime
        rounds += cycle(traced = false) +: (if (paired) Seq(cycle(traced = true)) else Nil)
        last = System.nanoTime - r0
      }
      // NaN (no /proc/stat) counts as quiet.
      val quiet = rounds.filterNot(_.exists(_.steal > Main.MaxSteal))
      (rounds.flatten.toSeq, (if (quiet.size >= minRounds) quiet else rounds).flatten.toSeq)
    }

    phase("warmup_s") {
      val t0 = System.nanoTime
      var n = 0
      while (n < Main.WarmupCycles || (System.nanoTime - t0) / 1e9 < Main.WarmupSeconds) {
        cycle(traced = false)
        n += 1
      }
    }
    val heapPools = ManagementFactory.getMemoryPoolMXBeans.asScala.filter(_.getType == MemoryType.HEAP)
    heapPools.foreach(_.resetPeakUsage())

    val metrics = mutable.ArrayBuffer.empty[(String, (Double, String))]
    def put(name: String, v: Double, unit: String): Unit = metrics += name -> (v, unit)
    def ns(c: Cycle, names: String*): Long = names.map(c.sums.getOrElse(_, 0L)).sum

    // A traced run alternates untraced and traced cycles, so that drift
    // over the run (the JIT still warming) cancels out of the overhead.
    val (measured, used) =
      if (!o.trace) phase("untraced_s")(measure(o.seconds, 3))
      else phase("paired_s")(measure(o.seconds, 2, paired = true))
    val (plain, traced) = used.partition(!_.traced)
    val raw = mutable.LinkedHashMap[String, Any](
      "phases" -> phases, "setup_s" -> setupS.toSeq, "cycles_measured" -> measured.size,
      "cycles_disturbed" -> measured.count(_.steal > Main.MaxSteal), "cycles_used" -> used.size,
      "untraced_op_s" -> measured.filter(!_.traced).map(c => Map("cycle" -> c.wallNs / 1e9,
        "fit" -> ns(c, "core.fit", "core.autofit") / 1e9, "score" -> ns(c, "core.score") / 1e9,
        "explain" -> ns(c, "explain.aggregate") / 1e9, "steal" -> c.steal)))

    if (!o.trace) {
      put("setup_s", median(setupS.toSeq), "s")
      put("total_s", median(plain.map(_.wallNs / 1e9)), "s")
      put("fit_rows_per_s", median(plain.map(c => c.fitRows / (ns(c, "core.fit", "core.autofit") / 1e9))), "rows/s")
      put("score_rows_per_s", median(plain.map(c => c.scoreRows / (ns(c, "core.score") / 1e9))), "rows/s")
      put("explain_tuples_per_s",
        median(plain.map(c => c.explainTuples / (ns(c, "explain.aggregate") / 1e9))), "tuples/s")
    } else {
      tracer.finish()
      val heapPeakMb = heapPools.map(_.getPeakUsage.getUsed).sum / 1048576.0
      raw("traced_cycle_s") = traced.map(_.wallNs / 1e9)

      def layer(name: String, unit: String)(f: Cycle => Double): Unit = put(name, median(traced.map(f)), unit)
      def note(c: Cycle, k: String) = c.notes.getOrElse(k, 0.0)
      put("data.generate_s", median(generateS.toSeq), "s")
      layer("stats.moments_of_s", "s")(ns(_, "stats.moments_of") / 1e9)
      layer("stats.moments_bygroup_s", "s")(ns(_, "stats.moments_bygroup") / 1e9)
      val momentSpans = tracer.spans.filter(_.name == "stats.moments_of").map(tracer.inclusive)
      put("stats.agg_exprs", median(momentSpans.map(_.values("agg_exprs")).toSeq), "count")
      put("stats.codegen_stages", median(momentSpans.map(_.values("codegen_stages")).toSeq), "count")
      layer("linalg.eigen_ms", "ms")(ns(_, "linalg.eigen") / 1e6)
      layer("core.synth_ms", "ms")(ns(_, "core.synth") / 1e6)
      layer("core.branches", "count")(note(_, "core.branches"))
      layer("core.conjuncts", "count")(note(_, "core.conjuncts"))
      layer("core.fit_s", "s")(ns(_, "core.fit") / 1e9)
      layer("core.autofit_s", "s")(ns(_, "core.autofit") / 1e9)
      layer("core.score_s", "s")(ns(_, "core.score") / 1e9)
      layer("core.score_ns_per_row", "ns")(c => ns(c, "core.score").toDouble / c.scoreRows)
      layer("core.violation_ns", "ns")(c => ns(c, "core.violation") / note(c, "core.violation_calls"))
      layer("explain.tuple_ms", "ms")(c => ns(c, "explain.tuples") / 1e6 / note(c, "explain.tuples"))
      layer("explain.violating_frac", "ratio")(c => note(c, "explain.violating") / note(c, "explain.tuples"))
      layer("explain.sample_s", "s")(c => (ns(c, "explain.aggregate") - ns(c, "explain.tuples")) / 1e9)

      // Spark work of the ops of each traced cycle, in total and per op kind.
      val cycles = tracer.spans.filter(s => s.name == "cycle" && s.parent == -1).toSeq
      val units = Map("executor_run_s" -> "s", "executor_cpu_s" -> "s", "deserialize_s" -> "s", "gc_s" -> "s",
        "result_bytes" -> "bytes", "shuffle_write_bytes" -> "bytes")
      for (kind <- Seq("", "fit", "score", "explain")) {
        val perCycle = cycles.map { cy =>
          val ops = tracer.children(cy).filter(s => if (kind.isEmpty) s.name.startsWith("op.") else s.name == s"op.$kind")
          val c = new Counters
          ops.foreach(s => c += tracer.inclusive(s))
          (c, ops.map(_.durNs).sum)
        }
        val suffix = if (kind.isEmpty) "" else s".$kind"
        Seq("jobs", "stages", "tasks", "executor_run_s", "executor_cpu_s", "deserialize_s", "gc_s",
          "result_bytes", "shuffle_write_bytes", "cached_scans").foreach { k =>
          put(s"spark.$k$suffix", median(perCycle.map(_._1.values(k))), units.getOrElse(k, "count"))
        }
        val cores = spark.sparkContext.defaultParallelism
        put(s"spark.busy_frac$suffix",
          median(perCycle.map { case (c, wall) => c.values("executor_run_s") / (wall / 1e9 * cores) }), "ratio")
      }
      put("jvm.heap_peak_mb", heapPeakMb, "MB")
      val plainTotal = median(plain.map(_.wallNs / 1e9))
      val tracedTotal = median(traced.map(_.wallNs / 1e9))
      put("trace.untraced_total_s", plainTotal, "s")
      put("trace.traced_total_s", tracedTotal, "s")
      put("trace.overhead_s", tracedTotal - plainTotal, "s")

      writeTrace(tracer, new File(o.out, s"traces/${o.workload}-seed${o.seed}.json"))
    }

    b.release()
    Result(metrics.toSeq, b.attempted, b.failed, b.failures.toSeq, firstPrint, raw.toMap)
  }

  /** Write every span with its self time and Spark counters, and print the
    * per-name summary.
    */
  private def writeTrace(tracer: Tracer, f: File): Unit = {
    val origin = tracer.spans.headOption.fold(0L)(_.startNs)
    val spans = tracer.spans.map { s =>
      Map("id" -> s.id, "parent" -> s.parent, "name" -> s.name,
        "start_ms" -> (s.startNs - origin) / 1e6, "dur_ms" -> s.durNs / 1e6, "self_ms" -> tracer.selfNs(s) / 1e6,
        "spark" -> tracer.inclusive(s).values.filter(_._2 != 0).toMap)
    }
    Main.write(f, Json(Map("spans" -> spans.toSeq)))
    println(f"${"span"}%-24s ${"count"}%6s ${"total_ms"}%12s ${"self_ms"}%12s ${"jobs"}%6s")
    tracer.spans.groupBy(_.name).toSeq.sortBy(_._2.head.id).foreach { case (name, ss) =>
      val jobs = ss.map(s => s.own.values("jobs")).sum
      println(f"$name%-24s ${ss.length}%6d ${ss.map(_.durNs).sum / 1e6}%12.1f " +
        f"${ss.map(tracer.selfNs).sum / 1e6}%12.1f ${jobs}%6.0f")
    }
    println(s"spans written to $f")
  }
}

/** CPU time the hypervisor gave to other guests, from the first line of
  * /proc/stat: the share of this machine's CPU time that was stolen between
  * two samples. NaN where /proc/stat is not readable.
  */
object HostCpu {
  final case class Sample(steal: Long, total: Long)

  def sample(): Sample =
    try {
      val src = scala.io.Source.fromFile("/proc/stat")
      val f = try src.getLines().next().trim.split("\\s+").drop(1).map(_.toLong) finally src.close()
      // user nice system idle iowait irq softirq steal; guest time is already in user.
      Sample(f(7), f.take(8).sum)
    } catch { case _: Exception => Sample(0, 0) }

  def stealShare(a: Sample, b: Sample): Double =
    if (b.total > a.total) (b.steal - a.steal).toDouble / (b.total - a.total) else Double.NaN
}

/** Minimal JSON rendering of maps, sequences, strings and numbers. */
object Json {
  def apply(v: Any): String = v match {
    case null => "null"
    case s: String => quote(s)
    case b: Boolean => b.toString
    case d: Double => if (d.isNaN || d.isInfinite) "null" else d.toString
    case n: Int => n.toString
    case n: Long => n.toString
    case m: scala.collection.Map[_, _] => m.map { case (k, x) => quote(k.toString) + ": " + apply(x) }.mkString("{", ", ", "}")
    case s: Iterable[_] => s.map(apply).mkString("[", ", ", "]")
    case other => quote(other.toString)
  }

  private def quote(s: String): String = {
    val sb = new StringBuilder("\"")
    s.foreach {
      case '"' => sb ++= "\\\""
      case '\\' => sb ++= "\\\\"
      case c if c < ' ' => sb ++= f"\\u${c.toInt}%04x"
      case c => sb += c
    }
    sb += '"'
    sb.toString
  }
}
