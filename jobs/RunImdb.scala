package repro.jobs

import org.apache.spark.sql.SparkSession

import repro.exp.ImdbExperiment

/** spark-submit entrypoint for the IMDb experiment (Tables 2, 5, 6, 7). */
object RunImdb {
  def main(args: Array[String]): Unit = {
    implicit val spark: SparkSession = SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("ceres-imdb")
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()

    val r = ImdbExperiment.run()
    println(ImdbExperiment.renderTable2(r))
    println(ImdbExperiment.renderTable5(r))
    println(ImdbExperiment.renderTable6(r))
    println(ImdbExperiment.renderTable7(r))
    spark.stop()
  }
}
