package org.apache.spark.sql

import org.apache.spark.sql.catalyst.expressions.Expression

/** Conversion between a public [[Column]] and its Catalyst expression, which
  * Spark keeps package-private: a custom expression takes its children from
  * ordinary columns and goes back into a DataFrame as one.
  */
object ColumnBridge {
  def expression(c: Column): Expression = classic.ExpressionUtils.expression(c)
  def column(e: Expression): Column = classic.ExpressionUtils.column(e)
}
