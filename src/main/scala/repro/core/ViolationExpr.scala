package repro.core

import org.apache.spark.sql.{Column, ColumnBridge}
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.catalyst.expressions.Expression
import org.apache.spark.sql.catalyst.expressions.codegen.{CodegenContext, ExprCode, FalseLiteral}
import org.apache.spark.sql.catalyst.expressions.codegen.Block._
import org.apache.spark.sql.functions.col
import org.apache.spark.sql.types.{DataType, DoubleType}
import org.apache.spark.unsafe.types.UTF8String

/** A model's violation score (§3.2) as a Catalyst expression, so scoring
  * compiles into the Java that whole-stage codegen generates for the query
  * instead of crossing into a UDF.
  *
  * The children are [[ViolationExpr.inputs]]: the numeric attributes cast to
  * double, then the partition attributes cast to string. Per row they are
  * written into two buffers, the doubles (null → NaN) and each disjunctive
  * attribute's branch index ([[ConformanceModel.branchIndex]]), which
  * [[ConformanceModel.violationAt]] scores, so a score has the same bits on every
  * path. Generated code keeps one pair of buffers per generated instance (one
  * per task); `eval` allocates its own per call, so no path shares mutable
  * state between threads.
  */
final case class ViolationExpr(children: Seq[Expression], model: ConformanceModel) extends Expression {
  require(children.length == model.numericCols.length + model.disjunctive.length,
    s"ViolationExpr: ${children.length} inputs for a model of " +
      s"${model.numericCols.length} numeric and ${model.disjunctive.length} partition attributes")

  private def m: Int = model.numericCols.length

  override def nullable: Boolean = false
  override def dataType: DataType = DoubleType
  override def prettyName: String = "violation"
  override def toString: String = children.mkString(s"$prettyName(", ", ", ")")

  override def eval(input: InternalRow): Any = {
    val x = new Array[Double](m)
    val idx = new Array[Int](children.length - m)
    var i = 0
    while (i < children.length) {
      val v = children(i).eval(input)
      if (i < m) x(i) = if (v == null) Double.NaN else v.asInstanceOf[Double]
      else idx(i - m) = model.branchIndex(i - m, v.asInstanceOf[UTF8String])
      i += 1
    }
    model.violationAt(idx, x)
  }

  override protected def doGenCode(ctx: CodegenContext, ev: ExprCode): ExprCode = {
    val ref = ctx.addReferenceObj("model", model)
    val x = ctx.addMutableState("double[]", "x", v => s"$v = new double[$m];")
    val idx = ctx.addMutableState("int[]", "idx", v => s"$v = new int[${children.length - m}];")
    val writes = children.zipWithIndex.map { case (c, i) =>
      val e = c.genCode(ctx)
      val store =
        if (i < m) s"$x[$i] = ${e.isNull} ? java.lang.Double.NaN : ${e.value};"
        else s"$idx[${i - m}] = $ref.branchIndex(${i - m}, ${e.isNull} ? null : ${e.value});"
      s"${e.code}\n$store"
    }
    ev.copy(
      code = code"""
        ${ctx.splitExpressionsWithCurrentInputs(writes)}
        double ${ev.value} = $ref.violationAt($idx, $x);""",
      isNull = FalseLiteral)
  }

  override protected def withNewChildrenInternal(newChildren: IndexedSeq[Expression]): ViolationExpr =
    copy(children = newChildren)
}

object ViolationExpr {

  /** The model's inputs as columns: its numeric attributes cast to double,
    * then its partition attributes cast to string.
    */
  def inputs(model: ConformanceModel): Seq[Column] =
    model.numericCols.map(c => col(c).cast("double")) ++ model.partitionAttrs.map(a => col(a).cast("string"))

  /** Each row's violation score under `model`. */
  def column(model: ConformanceModel): Column =
    ColumnBridge.column(ViolationExpr(inputs(model).map(ColumnBridge.expression), model))
}
