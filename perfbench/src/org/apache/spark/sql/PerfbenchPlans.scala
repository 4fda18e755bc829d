package org.apache.spark.sql

import org.apache.spark.sql.execution.QueryExecution
import org.apache.spark.sql.execution.ui.SparkListenerSQLExecutionEnd

/** Access to the query execution an SQL-execution-end event carries, which
  * Spark keeps package-private; its execution id is the one the execution's
  * jobs carry, so plan counters can be attributed like job counters.
  */
object PerfbenchPlans {
  def executed(e: SparkListenerSQLExecutionEnd): Option[QueryExecution] = Option(e.qe)
}
