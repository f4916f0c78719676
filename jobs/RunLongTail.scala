package repro.jobs

import org.apache.spark.sql.SparkSession

import repro.exp.LongTailExperiment

/** spark-submit entrypoint for the long-tail experiment (Tables 8, 9, Fig 6). */
object RunLongTail {
  def main(args: Array[String]): Unit = {
    implicit val spark: SparkSession = SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("ceres-longtail")
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    val scale = args.headOption.map(_.toDouble).getOrElse(1.0)

    val srs = LongTailExperiment.run(scale)
    println(LongTailExperiment.renderTable8(srs.map(LongTailExperiment.table8Row(_))))
    println(LongTailExperiment.renderTable9(srs))
    println(LongTailExperiment.renderFigure6(srs))
    println(LongTailExperiment.renderEntityRatio(srs))
    spark.stop()
  }
}
