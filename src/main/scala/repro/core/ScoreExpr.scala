package repro.core

import org.apache.spark.sql.{Column, ColumnBridge}
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.catalyst.expressions.Expression
import org.apache.spark.sql.catalyst.expressions.codegen.{CodegenContext, ExprCode}
import org.apache.spark.sql.catalyst.expressions.codegen.Block._
import org.apache.spark.sql.functions.col
import org.apache.spark.sql.types.{DataType, DoubleType}
import org.apache.spark.unsafe.types.UTF8String

/** A model's per-tuple score ([[TupleScore]]) as a Catalyst expression:
  * every model scores rows through it, and whole-stage codegen compiles it
  * into the query's Java instead of crossing into a UDF. Its children are
  * [[ScoreExpr.inputs]]; per row they fill two buffers, the doubles (null
  * or ±∞ → NaN, a missing value) and each partition attribute's branch
  * index, which `scoreAt` scores, so a score has the same bits on every
  * path. The value is null exactly where `scoreAt` is NaN, so aggregates
  * skip those rows. The model is one reference object, not literals, so
  * models of one class and shape generate the same Java, which Spark
  * compiles once. Generated code keeps one pair of buffers per instance
  * (one per task); `eval` allocates its own, so no path shares mutable
  * state between threads.
  */
final case class ScoreExpr(children: Seq[Expression], model: TupleScore) extends Expression {
  require(children.length == model.numericCols.length + model.partitionAttrs.length, s"ScoreExpr: " +
    s"${children.length} inputs for ${model.numericCols.length} numeric and ${model.partitionAttrs.length} partition attributes")

  private def m: Int = model.numericCols.length

  override def nullable: Boolean = true
  override def dataType: DataType = DoubleType
  override def prettyName: String = "score"
  override def toString: String = children.mkString(s"$prettyName(", ", ", ")")

  override def eval(input: InternalRow): Any = {
    val x = new Array[Double](m)
    val idx = new Array[Int](children.length - m)
    var i = 0
    while (i < children.length) {
      val v = children(i).eval(input)
      if (i < m) x(i) = v match { case d: Double if !d.isInfinite => d; case _ => Double.NaN }
      else idx(i - m) = model.branchIndex(i - m, v.asInstanceOf[UTF8String])
      i += 1
    }
    val s = model.scoreAt(idx, x)
    if (s.isNaN) null else s
  }

  override protected def doGenCode(ctx: CodegenContext, ev: ExprCode): ExprCode = {
    val ref = ctx.addReferenceObj("model", model)
    val x = ctx.addMutableState("double[]", "x", v => s"$v = new double[$m];")
    val idx = ctx.addMutableState("int[]", "idx", v => s"$v = new int[${children.length - m}];")
    val writes = children.zipWithIndex.map { case (c, i) =>
      val e = c.genCode(ctx)
      val store =
        if (i < m) s"$x[$i] = (${e.isNull} || java.lang.Double.isInfinite(${e.value})) ? java.lang.Double.NaN : ${e.value};"
        else s"$idx[${i - m}] = $ref.branchIndex(${i - m}, ${e.isNull} ? null : ${e.value});"
      s"${e.code}\n$store"
    }
    ev.copy(code = code"""
      ${ctx.splitExpressionsWithCurrentInputs(writes)}
      double ${ev.value} = $ref.scoreAt($idx, $x);
      boolean ${ev.isNull} = java.lang.Double.isNaN(${ev.value});""")
  }

  override protected def withNewChildrenInternal(newChildren: IndexedSeq[Expression]): ScoreExpr =
    copy(children = newChildren)
}

object ScoreExpr {

  /** The model's inputs: its numeric attributes cast to double, then its partition attributes to string. */
  def inputs(model: TupleScore): Seq[Column] =
    model.numericCols.map(c => col(c).cast("double")) ++ model.partitionAttrs.map(a => col(a).cast("string"))

  /** Each row's score under `model`. */
  def column(model: TupleScore): Column =
    ColumnBridge.column(ScoreExpr(inputs(model).map(ColumnBridge.expression), model))
}
