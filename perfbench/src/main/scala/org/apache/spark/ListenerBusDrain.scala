package org.apache.spark

/** Waits until every listener event posted so far has been delivered, so
  * substrate counters read after a round include all of that round's tasks.
  * The listener bus is internal to Spark, hence this package.
  */
object ListenerBusDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
