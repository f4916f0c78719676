package repro.jobs

import org.apache.spark.sql.SparkSession

import repro.exp.SwdeExperiment
import repro.web.Verticals

/** spark-submit entrypoint for the SWDE experiment (Tables 1, 3, 4).
  *
  * Usage: spark-submit --class repro.jobs.RunSwde repro.jar [pagesPerSite]
  */
object RunSwde {
  def main(args: Array[String]): Unit = {
    implicit val spark: SparkSession = SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("ceres-swde")
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    val pagesPerSite = args.headOption.map(_.toInt).getOrElse(120)

    val runs = SwdeExperiment.run(pagesPerSite)
    println(SwdeExperiment.renderTable1(Verticals.all(pagesPerSite)))
    println(SwdeExperiment.renderTable3(runs))
    println(SwdeExperiment.renderAnnotatedFraction(runs))
    println(SwdeExperiment.renderTable4(runs))
    spark.stop()
  }
}
