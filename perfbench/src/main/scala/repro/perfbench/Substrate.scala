package repro.perfbench

import java.lang.management.{ManagementFactory, MemoryType}
import java.util.concurrent.atomic.LongAdder

import scala.jdk.CollectionConverters._

import org.apache.spark.ListenerBusDrain
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerStageCompleted, SparkListenerTaskEnd}
import org.apache.spark.sql.SparkSession

/** Substrate counters: Spark jobs, stages, tasks, executor run time and
  * shuffle writes from a `SparkListener`, and GC time and peak heap from the
  * JVM's MXBeans.  `sample` brackets one round and returns its deltas.
  */
final class Substrate(spark: SparkSession) {

  private val jobs, stages, tasks = new LongAdder
  private val runMs, shuffleBytes = new LongAdder

  private val listener = new SparkListener {
    override def onJobStart(e: SparkListenerJobStart): Unit             = jobs.increment()
    override def onStageCompleted(e: SparkListenerStageCompleted): Unit = stages.increment()
    override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
      tasks.increment()
      Option(e.taskMetrics).foreach { m =>
        runMs.add(m.executorRunTime)
        shuffleBytes.add(m.shuffleWriteMetrics.bytesWritten)
      }
    }
  }
  spark.sparkContext.addSparkListener(listener)

  private def gcMs: Long =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(b => math.max(0L, b.getCollectionTime)).sum

  private def heapPools = ManagementFactory.getMemoryPoolMXBeans.asScala.filter(_.getType == MemoryType.HEAP)

  private def totals: Vector[Long] = {
    ListenerBusDrain(spark.sparkContext)
    Vector(jobs.sum, stages.sum, tasks.sum, runMs.sum, shuffleBytes.sum, gcMs)
  }

  /** Run `body` and return its result with the counters it moved. */
  def sample[T](body: => T): (T, Map[String, Double]) = {
    heapPools.foreach(_.resetPeakUsage())
    val before = totals
    val out    = body
    val d      = totals.zip(before).map { case (a, b) => (a - b).toDouble }
    val peakMb = heapPools.map(_.getPeakUsage.getUsed).sum / 1048576.0
    (out, Map(
      "spark.jobs"             -> d(0),
      "spark.stages"           -> d(1),
      "spark.tasks"            -> d(2),
      "spark.task_busy_s"      -> d(3) / 1000.0,
      "spark.shuffle_write_mb" -> d(4) / 1048576.0,
      "jvm.gc_s"               -> d(5) / 1000.0,
      "jvm.peak_heap_mb"       -> peakMb,
    ))
  }

  def close(): Unit = spark.sparkContext.removeSparkListener(listener)
}
