package repro.perfbench

import java.nio.file.{Files, Paths}

import scala.jdk.CollectionConverters._

import org.apache.spark.sql.SparkSession

/** Command-line entry point:
  * `Main --workload <name> [--seed n] [--seconds s] [--trace 0|1]`.
  * Prints notes, then the result as one JSON object on the last line.
  */
object Main {

  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    val workload = Workloads.byName(opts.getOrElse("workload", ""), Workloads.Full)
    val seed     = opts.get("seed").map(_.toLong).getOrElse(workload.defaultSeed)
    val seconds  = opts.getOrElse("seconds", "10").toDouble
    val trace    = opts.getOrElse("trace", "0") match {
      case "0" => false
      case "1" => true
      case other => throw new IllegalArgumentException(s"--trace takes 0 or 1, not $other")
    }
    val cores   = math.min(4, Runtime.getRuntime.availableProcessors)
    val scratch = sys.props.getOrElse("perfbench.scratch", ".bench_build")

    val t0 = System.nanoTime()
    implicit val spark: SparkSession = SparkSession.builder
      .master(s"local[$cores]")
      .appName(s"ceres-perfbench-${workload.name}")
      .config("spark.sql.shuffle.partitions", "16")
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", s"$scratch/spark-local")
      .config("spark.sql.warehouse.dir", s"$scratch/spark-warehouse")
      .getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    val sparkStartS = (System.nanoTime() - t0) / 1e9

    try {
      val report = Bench.run(workload, seed, seconds, trace, cores, sparkStartS)
      report.notes.foreach(n => println(s"# $n"))
      if (trace) {
        val out = Paths.get(scratch, s"spans-${workload.name}-$seed.jsonl")
        Files.write(out, Bench.spanLines(report).asJava)
        println(s"# spans written to $out")
      }
      println(Bench.json(report))
    } finally spark.stop()
  }
}
