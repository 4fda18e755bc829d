package repro.core

import scala.util.Random
import org.apache.spark.metrics.source.CodegenMetrics
import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.catalyst.expressions.{ArrayPosition, BindReferences, Expression, Literal, ScalaUDF}
import org.apache.spark.sql.catalyst.expressions.codegen.CodegenContext
import org.apache.spark.sql.execution.{InputAdapter, ProjectExec, SparkPlan, WholeStageCodegenExec}
import org.apache.spark.sql.execution.adaptive.AdaptiveSparkPlanHelper
import org.apache.spark.sql.functions.avg
import org.apache.spark.sql.types._
import repro.SparkSpec
import repro.drift.{ChangeDetection, PcaSpll}
import repro.ml.{LinearRegression, LogisticRegression}
import repro.stats.Moments

/** The score expression: DISYNTH's violation on every evaluation path, and
  * the plans every other model scores through.
  */
class ViolationExprSpec extends SparkSpec with AdaptiveSparkPlanHelper {

  /** Spark settings under which each score path runs; none may fall back to
    * another path silently.
    */
  private val paths = Seq(
    "whole-stage codegen" -> Seq("spark.sql.codegen.wholeStage" -> "true",
      "spark.sql.codegen.fallback" -> "false", "spark.sql.codegen.factoryMode" -> "CODEGEN_ONLY"),
    "expression codegen" -> Seq("spark.sql.codegen.wholeStage" -> "false",
      "spark.sql.codegen.factoryMode" -> "CODEGEN_ONLY"),
    "interpreted" -> Seq("spark.sql.codegen.wholeStage" -> "false",
      "spark.sql.codegen.factoryMode" -> "NO_CODEGEN"),
  )

  private def withConf[T](settings: Seq[(String, String)])(body: => T): T = {
    val saved = settings.map { case (k, _) => k -> spark.conf.getOption(k) }
    settings.foreach { case (k, v) => spark.conf.set(k, v) }
    try body
    finally saved.foreach {
      case (k, Some(v)) => spark.conf.set(k, v)
      case (k, None) => spark.conf.unset(k)
    }
  }

  private def frame(rows: Seq[Row], schema: StructType): DataFrame =
    spark.createDataFrame(spark.sparkContext.parallelize(rows, 3), schema)

  /** A raw numeric value as the reference reads it: widened to double,
    * null as NaN.
    */
  private def toDouble(v: Any): Double = v match {
    case null => Double.NaN
    case d: java.math.BigDecimal => d.doubleValue
    case n: Number => n.doubleValue
  }

  /** Scores `test` on every path and checks each row against
    * [[Reference.violation]] bit for bit; returns the scores.
    */
  private def assertReferenceBits(test: DataFrame, model: ConformanceModel): Seq[Double] = {
    val rows = test.collect()
    val want = rows.map { r =>
      val x = model.numericCols.map(c => toDouble(r.get(r.fieldIndex(c)))).toArray
      val pv = model.partitionAttrs.map(a => a -> Option(r.get(r.fieldIndex(a))).map(_.toString)).toMap
      Reference.violation(model, pv, x)
    }
    paths.foreach { case (path, settings) =>
      val got = withConf(settings)(Disynth.score(test, model, "v").select("v").collect().map(_.getDouble(0)))
      assert(got.length == want.length)
      got.indices.foreach { i =>
        assert(Reference.sameBits(got(i), want(i)), s"$path, row ${rows(i)}: got ${got(i)}, want ${want(i)}")
      }
    }
    want.toSeq
  }

  private val mixedSchema = StructType(Seq(
    StructField("s", StringType), StructField("b", BooleanType), StructField("i", IntegerType),
    StructField("l", LongType), StructField("f", FloatType), StructField("d", DecimalType(12, 4)),
    StructField("x", DoubleType)))

  /** Rows whose x is a linear function of the other numerics, with an
    * offset per s. `dirty` rows also take nulls, NaNs, shifts and unseen or
    * null categories.
    */
  private def mixedRows(rnd: Random, n: Int, dirty: Boolean): Seq[Row] = (1 to n).map { _ =>
    def maybe[T](v: T): Any = if (dirty && rnd.nextInt(15) == 0) null else v
    val s = if (dirty) Seq("a", "b", "c", "zz", null)(rnd.nextInt(5)) else Seq("a", "b", "c")(rnd.nextInt(3))
    val b = if (dirty && rnd.nextInt(6) == 0) null else rnd.nextBoolean()
    val i = rnd.nextInt(100)
    val l = 1000L + rnd.nextInt(4000)
    val f = (0.5 * i + rnd.nextGaussian()).toFloat
    val d = new java.math.BigDecimal(rnd.nextInt(1000000)).movePointLeft(4)
    val offset = Option(s).map(_.head.toInt % 7).getOrElse(0) + (if (b == true) 3 else 0)
    var x = offset + i + 0.01 * l + f + d.doubleValue + 0.01 * rnd.nextGaussian()
    if (dirty && rnd.nextInt(4) == 0) x += rnd.between(-20.0, 20.0)
    val fv = if (dirty && rnd.nextInt(20) == 0) Float.NaN else f
    val xv = if (dirty && rnd.nextInt(20) == 0) Double.NaN else x
    Row(s, b, maybe(i), maybe(l), maybe(fv), maybe(d), maybe(xv))
  }

  test("scores equal the reference bit for bit on int, long, float, decimal and double inputs, compiled and interpreted") {
    val rnd = new Random(31)
    val train = frame(mixedRows(rnd, 900, dirty = false), mixedSchema)
    val test = frame(mixedRows(rnd, 400, dirty = true), mixedSchema)
    val numeric = Seq("i", "l", "f", "d", "x")
    Seq(Nil, Seq("s"), Seq("s", "b")).foreach { parts =>
      val model = Disynth.fit(train, numeric, parts)
      assert(model.partitionAttrs == parts)
      val scores = assertReferenceBits(test, model)
      assert(scores.exists(_ == 1.0) && scores.exists(v => v > 0.0 && v < 1.0) && scores.exists(_ < 0.01),
        s"partition attributes $parts: scores do not cover conforming, partial and maximal violations")
    }
  }

  private def wideFrame(rnd: Random, src: RandomModels.Source, n: Int, dirty: Boolean): DataFrame = {
    val m = src.offset.length
    val schema = StructType(StructField("g", StringType) +: (0 until m).map(i => StructField(s"c$i", DoubleType)))
    frame((1 to n).map { _ =>
      val x = src.draw(rnd)
      if (dirty && rnd.nextInt(3) == 0) x(rnd.nextInt(m)) += rnd.between(-50.0, 50.0)
      val g = if (dirty) Seq("p", "q", "new", null)(rnd.nextInt(4)) else Seq("p", "q")(rnd.nextInt(2))
      Row(g +: x.toSeq.map(v => if (dirty && rnd.nextInt(200) == 0) null else v): _*)
    }, schema)
  }

  /** The violation expression of `scored`'s executed projection, bound to
    * the projection's input.
    */
  private def boundScore(scored: DataFrame): Expression = {
    val project = collectFirst(scored.queryExecution.executedPlan) {
      case p: ProjectExec if p.projectList.exists(_.find(_.isInstanceOf[ScoreExpr]).isDefined) => p
    }.get
    val v = project.projectList.flatMap(_.collect { case v: ScoreExpr => v }).head
    BindReferences.bindReference(v: Expression, project.child.output)
  }

  /** Methods codegen splits out of the expression's code. */
  private def splitMethods(e: Expression): Int = {
    val ctx = new CodegenContext
    e.genCode(ctx)
    "private void apply_".r.findAllMatchIn(ctx.declareAddedFunctions()).size
  }

  test("a 60-attribute model scores like the reference on every path, and codegen splits its methods") {
    val rnd = new Random(32)
    val m = 60
    val src = RandomModels.source(rnd, m)
    val cols = (0 until m).map(i => s"c$i")
    val model = Disynth.fit(wideFrame(rnd, src, 600, dirty = false), cols, Seq("g"))
    assert(model.disjunctive.head.cases.keySet == Set("p", "q"))
    val test = wideFrame(rnd, src, 200, dirty = true)
    val scores = assertReferenceBits(test, model)
    assert(scores.exists(_ == 1.0) && scores.exists(v => v > 0.0 && v < 1.0))

    assert(splitMethods(boundScore(Disynth.score(test, model))) > 1)
    val narrow = Disynth.fit(wideFrame(rnd, src, 600, dirty = false).select("g", "c0", "c1"), Seq("c0", "c1"), Seq("g"))
    assert(splitMethods(boundScore(Disynth.score(test, narrow))) == 0)
  }

  private def exprs(plan: SparkPlan): Seq[Expression] = plan.expressions.flatMap(_.collect { case e => e })

  /** The operators a whole-stage codegen subtree compiles: all down to its
    * input adapters.
    */
  private def stageNodes(p: SparkPlan): Seq[SparkPlan] =
    p +: (p match {
      case _: InputAdapter => Nil
      case _ => p.children.flatMap(stageNodes)
    })

  test("the executed score plan has no UDF or array_position and runs the expression in whole-stage codegen") {
    val rnd = new Random(33)
    val train = frame(mixedRows(rnd, 300, dirty = false), mixedSchema)
    val model = Disynth.fit(train, Seq("i", "l", "f", "d", "x"), Seq("s", "b"))
    val scored = Disynth.score(train, model, "v")
    Seq(scored, scored.groupBy().avg("v")).foreach { df =>
      df.collect()
      val plan = df.queryExecution.executedPlan
      val all = collect(plan) { case p => p }.flatMap(exprs)
      assert(!all.exists(e => e.isInstanceOf[ScalaUDF] || e.isInstanceOf[ArrayPosition]), plan.toString)
      val staged = collect(plan) { case w: WholeStageCodegenExec => w }
        .flatMap(w => stageNodes(w.child).flatMap(exprs))
      assert(staged.exists(_.isInstanceOf[ScoreExpr]), plan.toString)
    }
  }

  /** `label` plus three offset numeric columns, the middle one linear in the first. */
  private def labelled(rnd: Random, n: Int, shift: Double): DataFrame = {
    import spark.implicits._
    // Parallelized, not local, so the optimizer does not evaluate the score itself.
    spark.sparkContext.parallelize((1 to n).map { i =>
      val a = rnd.nextGaussian()
      (Seq("a", "b", "c")(i % 3), shift + 3 * (i % 3) + 2 * a, -1 + a + 0.1 * rnd.nextGaussian(), 0.5 * a + rnd.nextGaussian())
    }, 3).toDF("label", "x", "y", "v")
  }

  test("the PCA-SPLL, CD, linear and softmax plans score in whole-stage codegen, with no UDF and no weight as a literal") {
    val rnd = new Random(34)
    val df = labelled(rnd, 300, 0.0)
    val cols = Seq("x", "y", "v")
    val mom = Moments.of(df, cols)
    val spll = PcaSpll.fit(mom, varianceFraction = 1.5)
    val cd = ChangeDetection.fit(df, mom)
    val lin = LinearRegression.fit(df, Seq("x", "y"), "v")
    val soft = LogisticRegression.fit(df, cols, "label", iters = 20)
    val plans = Seq(
      "PCA-SPLL" -> (df.agg(avg(spll.statistic)),
        spll.z.means ++ spll.z.stds ++ spll.components.flatten ++ spll.variances),
      "CD" -> (cd.withScores(df).agg(cd.binCounts.head, cd.binCounts.tail: _*),
        cd.z.means ++ cd.z.stds ++ cd.components.flatten),
      "linear" -> (lin.transform(df, "p").agg(avg("p")), lin.intercept +: lin.weights),
      "softmax" -> (soft.transform(df, "p").groupBy("p").count(),
        soft.z.means ++ soft.z.stds ++ soft.weights.flatten),
    )
    plans.foreach { case (name, (q, params)) =>
      q.collect()
      val plan = q.queryExecution.executedPlan
      val all = collect(plan) { case p => p }.flatMap(exprs)
      assert(!all.exists(_.isInstanceOf[ScalaUDF]), s"$name: $plan")
      val literals = all.collect { case Literal(v: Double, DoubleType) => v }.toSet
      assert(params.forall(w => w == 0.0 || w == 1.0 || !literals.contains(w)), s"$name: a weight is a literal in $plan")
      val staged = collect(plan) { case w: WholeStageCodegenExec => w }.flatMap(w => stageNodes(w.child).flatMap(exprs))
      assert(staged.exists(_.isInstanceOf[ScoreExpr]), s"$name: $plan")
    }
  }

  test("±∞ inputs score exactly like NaN on every path, under every model") {
    val rnd = new Random(36)
    val df = labelled(rnd, 300, 0.0)
    val cols = Seq("x", "y", "v")
    val lin = LinearRegression.fit(df, Seq("x", "y"), "v")
    val models: Seq[(String, TupleScore)] = Seq(
      "DISYNTH" -> Disynth.fit(df, cols, Seq("label")),
      "PCA-SPLL" -> PcaSpll.fit(Moments.of(df, cols), varianceFraction = 1.5),
      "linear" -> lin,
      "softmax" -> LogisticRegression.fit(df, cols, "label", iters = 20))
    // Every other row takes a non-finite value in one attribute, in turn.
    val base = labelled(rnd, 120, 1.0).collect().toSeq
    val schema = StructType(StructField("label", StringType) +: cols.map(StructField(_, DoubleType)))
    def withValue(v: Int => Double): DataFrame = frame(base.zipWithIndex.map { case (r, i) =>
      val x = Array.tabulate(3)(j => r.getDouble(1 + j))
      if (i % 2 == 0) x(i / 2 % 3) = v(i)
      Row(r.getString(0) +: x.toSeq: _*)
    }, schema)
    val inf = withValue(i => if (i % 4 == 0) Double.PositiveInfinity else Double.NegativeInfinity)
    val nan = withValue(_ => Double.NaN)
    // Per model, each row's score as raw bits, or None where it is null.
    def scores(test: DataFrame): Seq[Seq[Option[Long]]] = {
      val rows = test.select(models.map { case (_, m) => ScoreExpr.column(m) }: _*).collect().toSeq
      models.indices.map(k => rows.map(r => Option.unless(r.isNullAt(k))(java.lang.Double.doubleToRawLongBits(r.getDouble(k)))))
    }
    paths.foreach { case (path, settings) =>
      withConf(settings) {
        val (fromInf, fromNan) = (scores(inf), scores(nan))
        models.indices.foreach(k => assert(fromInf(k) == fromNan(k), s"$path, ${models(k)._1}"))
        // A linear prediction from an infinite feature would be infinite; it is missing.
        val missing = fromInf(models.indexWhere(_._2 == lin)).map(_.isEmpty)
        assert(missing == base.indices.map(i => i % 2 == 0 && i / 2 % 3 < 2), path)
      }
    }
  }

  test("two softmax models of the same shape generate the same Java, which Spark compiles once") {
    val rnd = new Random(35)
    val test = labelled(rnd, 120, 0.0)
    val Seq(m1, m2) = Seq(0.0, 5.0).map(s => LogisticRegression.fit(labelled(rnd, 120, s), Seq("x", "y", "v"), "label", iters = 20))
    assert(!java.util.Arrays.equals(m1.weights(0), m2.weights(0)))
    def generated(m: LogisticRegression.Model): Seq[String] = {
      val q = m.transform(test, "p").groupBy("p").count()
      q.collect()
      collect(q.queryExecution.executedPlan) { case w: WholeStageCodegenExec => w.doCodeGen()._2.body }
    }
    val first = generated(m1)
    val compiled = CodegenMetrics.METRIC_COMPILATION_TIME.getCount
    assert(first.nonEmpty && generated(m2) == first)
    assert(CodegenMetrics.METRIC_COMPILATION_TIME.getCount == compiled)
  }
}
