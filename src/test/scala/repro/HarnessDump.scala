package repro

import java.io.PrintWriter
import repro.exp.{AirlinesTml, CaseStudies, EvlDrift, HarExperiments, LedExplain}

/** Writes the results of every experiment harness, one line each, with every
  * double as `Double.toHexString`, so the outputs of two builds compare byte
  * for byte (`cmp`). The sizes are those of the tier-1 specs, plus the
  * Fig. 8 bench's EVL run, `mixCurve` at 60 × 6 and 400 × 6, and all 15
  * persons of Fig. 6.
  *
  * Usage: sbt "Test/runMain repro.HarnessDump <file>"
  */
object HarnessDump {

  /** `v` with every double in full precision and every map in key order. */
  private def show(v: Any): String = v match {
    case d: Double => java.lang.Double.toHexString(d)
    case m: Map[_, _] => m.toSeq.map { case (k, x) => s"${show(k)}->${show(x)}" }.sorted.mkString("{", ",", "}")
    case s: Iterable[_] => s.map(show).mkString("[", ",", "]")
    case a: Array[_] => show(a.toSeq)
    case p: Product if p.productArity > 0 => p.productIterator.map(show).mkString(s"${p.productPrefix}(", ",", ")")
    case other => String.valueOf(other)
  }

  def main(args: Array[String]): Unit = {
    require(args.length == 1, "usage: HarnessDump <file>")
    val spark = SparkSpec.shared
    val out = new PrintWriter(args(0), "UTF-8")
    def dump(name: String, result: => Any): Unit = { out.println(s"$name ${show(result)}"); out.flush() }
    val sixFractions = Seq(0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
    try {
      dump("evl-spec", EvlDrift.run(spark, datasets = Seq("1CDT", "4CR", "FG-2C-2D"), nWindows = 8, pointsPerClass = 200))
      dump("evl-bench", EvlDrift.run(spark, nWindows = 10, pointsPerClass = 500))
      for ((rows, fractions) <- Seq(60 -> Seq(0.0, 0.5, 1.0), 60 -> sixFractions, 400 -> sixFractions))
        dump(s"mix-$rows-${fractions.length}", HarExperiments.mixCurve(spark, rows, fractions))
      dump("gradual", HarExperiments.gradualDrift(spark, rowsPerPersonActivity = 400))
      dump("inter-person-5", HarExperiments.interPerson(spark, 400, persons = Seq("p1", "p2", "p3", "p8", "p9")))
      dump("inter-person-15", HarExperiments.interPerson(spark, 400))
      dump("inter-activity", HarExperiments.interActivity(spark, 400))
      dump("airlines", AirlinesTml.run(spark, nFlights = 20000, seed = 11))
      dump("led-12", LedExplain.run(spark, nWindows = 12, rowsPerWindow = 1200, respSample = 60))
      dump("led-7", LedExplain.run(spark, nWindows = 7, rowsPerWindow = 1200, respSample = 50))
      dump("case-studies", CaseStudies.run(spark, n = 3000, respSample = 80))
    } finally {
      out.close()
      spark.stop()
    }
  }
}
