package repro.web

import scala.util.Random
import scala.util.hashing.MurmurHash3

import repro.kb.{KnowledgeBase, Triple}

/** IMDb-lite: a complex movie world rendered through two templates (Person
  * and Film/TV) for the §5.4 experiment (Tables 5–7).
  *
  * Reproduced phenomena, keyed to the paper:
  *  - long multi-valued predicates (cast lists of 8–20, filmographies);
  *  - overlapping relations (directors frequently also write, and appear in
  *    the cast, §3.2);
  *  - predicate-free sections: "Known For", "Projects in Development",
  *    talk-show appearance lists (the CERES-Topic killers of §5.4);
  *  - TV episodes sharing titles ("Pilot", §2.2) and a KB with many more
  *    episodes than films (§5.5.1 over-represented types);
  *  - a seed KB that is a biased sample of world facts, with cast coverage
  *    correlated with the "featured" presentation (footnote 10: ~14% of
  *    cast, 9% of producer, 38% of director, 58% of genre facts retained).
  */
object ImdbWorld {

  case class Imdb(
      persons: Vector[WEntity],
      titles: Vector[WEntity], // films + episodes
      site: RenderedSite,      // both templates, one website
      kb: KnowledgeBase,
  )

  def build(
      nFilms: Int = 120,
      nEpisodes: Int = 160,
      nPersons: Int = 260,
      nPersonPages: Int = 120,
      nTitlePages: Int = 200,
      seed: Long = 55,
  ): Imdb = {
    val rng = new Random(seed)
    val gen = new NameGen(rng)

    val personNames = {
      val used = collection.mutable.LinkedHashSet.empty[String]
      while (used.size < nPersons) used += gen.person()
      used.toVector
    }
    val cities = Vector.fill(30)(s"${gen.filmTitle().split(" ").last} City")

    // ---- films -----------------------------------------------------------
    case class FilmRec(id: String, name: String, isEpisode: Boolean,
                       cast: Vector[Int], directors: Vector[Int], writers: Vector[Int],
                       producers: Vector[Int], date: String, year: String,
                       genres: Vector[String], series: String, ep: Int, season: Int)

    def pickPeople(k: Int): Vector[Int] = Vector.fill(k)(rng.nextInt(nPersons)).distinct

    val seriesNames = Vector.fill(12)(gen.seriesTitle())
    val commonEpisodeTitles = Vector("Pilot", "Finale", "Homecoming", "The Reunion")

    val films = (0 until nFilms).map { i =>
      val directors = pickPeople(1 + rng.nextInt(2))
      // §3.2: writers and directors of movies are often the same person.
      val writers = (if (rng.nextDouble() < 0.5) directors.take(1) else Vector.empty) ++
                    pickPeople(rng.nextInt(2))
      val date = gen.date(1970, 2017)
      FilmRec(s"f$i", gen.filmTitle(), isEpisode = false,
        cast = pickPeople(8 + rng.nextInt(13)),
        directors = directors, writers = writers.distinct,
        producers = pickPeople(1 + rng.nextInt(3)),
        date = date, year = date.take(4),
        genres = rng.shuffle(Verticals.MovieGenres).take(1 + rng.nextInt(3)),
        series = "", ep = 0, season = 0)
    }.toVector

    val episodes = (0 until nEpisodes).map { i =>
      val title = if (rng.nextDouble() < 0.4) commonEpisodeTitles(rng.nextInt(commonEpisodeTitles.size))
                  else gen.filmTitle()
      val date  = gen.date(1995, 2017)
      FilmRec(s"e$i", title, isEpisode = true,
        cast = pickPeople(3 + rng.nextInt(5)),
        directors = pickPeople(1), writers = pickPeople(1 + rng.nextInt(2)),
        producers = pickPeople(1),
        date = date, year = date.take(4),
        genres = rng.shuffle(Verticals.MovieGenres).take(1),
        series = seriesNames(rng.nextInt(seriesNames.size)),
        ep = 1 + rng.nextInt(24), season = 1 + rng.nextInt(8))
    }.toVector

    val allTitles = films ++ episodes

    // ---- derive entities -------------------------------------------------
    val titleEntities = allTitles.map { f =>
      val facts = Vector.newBuilder[(String, String)]
      facts ++= f.cast.map(p => "hasCastMember" -> personNames(p))
      facts ++= f.directors.map(p => "directedBy" -> personNames(p))
      facts ++= f.writers.map(p => "writtenBy" -> personNames(p))
      facts += ("releaseDate" -> f.date)
      facts += ("releaseYear" -> f.year)
      facts ++= f.genres.map("genre" -> _)
      if (f.isEpisode) {
        facts += ("episodeNumber" -> f.ep.toString)
        facts += ("seasonNumber" -> f.season.toString)
        facts += ("series" -> f.series)
      }
      WEntity(f.id, f.name, if (f.isEpisode) "TVEpisode" else "Film", facts.result())
    }

    val personEntities = (0 until nPersons).map { p =>
      val name  = personNames(p)
      val parts = name.split(" ")
      val facts = Vector.newBuilder[(String, String)]
      val aliasRng = new Random(seed ^ MurmurHash3.stringHash(s"alias$p"))
      if (aliasRng.nextDouble() < 0.7)
        facts += ("alias" -> s"${parts.head} ${parts.last.head}. ${parts.last}")
      if (aliasRng.nextDouble() < 0.3)
        facts += ("alias" -> s"${parts.head.head}. ${parts.last}")
      facts += ("placeOfBirth" -> cities(aliasRng.nextInt(cities.size)))
      facts ++= allTitles.filter(_.cast.contains(p)).map(f => "actedIn" -> f.name)
      facts ++= allTitles.filter(_.directors.contains(p)).map(f => "directorOf" -> f.name)
      facts ++= allTitles.filter(_.writers.contains(p)).map(f => "writerOf" -> f.name)
      facts ++= allTitles.filter(_.producers.contains(p)).map(f => "producerOf" -> f.name)
      WEntity(s"p$p", name, "Person", facts.result().distinct)
    }.toVector

    // ---- site (two templates, one website) -------------------------------
    val filmTitlePool = films.map(_.name)
    val epTitlePool   = episodes.map(_.name)

    val titleSpec = SiteSpec("imdb-lite.com", "title",
      fields = Vector(
        FieldLayout("title", "Title", multi = false),
        FieldLayout("hasCastMember", "Cast", multi = true),
        FieldLayout("directedBy", "Director", multi = true),
        FieldLayout("writtenBy", "Writer", multi = true),
        FieldLayout("releaseDate", "Release Date", multi = false),
        FieldLayout("releaseYear", "Year", multi = false),
        FieldLayout("genre", "Genres", multi = true),
        FieldLayout("episodeNumber", "Episode", multi = false),
        FieldLayout("seasonNumber", "Season", multi = false),
        FieldLayout("series", "Series", multi = false),
      ),
      noise = NoiseSpec(
        recPreds = Set("genre"),
        splitPreds = Set("hasCastMember"),
        missingFieldProb = 0.06,
      ),
      classPrefix = "tt", seed = seed * 31 + 1)

    val personSpec = SiteSpec("imdb-lite.com", "name",
      fields = Vector(
        FieldLayout("name", "Name", multi = false),
        FieldLayout("alias", "Alternate Names", multi = true),
        FieldLayout("placeOfBirth", "Born", multi = false),
        FieldLayout("actedIn", "Actor", multi = true),
        FieldLayout("directorOf", "Director", multi = true),
        FieldLayout("writerOf", "Writer", multi = true),
        FieldLayout("producerOf", "Producer", multi = true),
      ),
      noise = NoiseSpec(
        splitPreds = Set("actedIn"),
        // Producer credits are flaky: often only in "Projects in Development".
        missingFieldProb = 0.06,
        strips = Vector(
          StripSpec("Known For", "kf", Set("actedIn", "directorOf", "producerOf"), take = 4),
          StripSpec("Projects in Development", "proj", Set("producerOf"), take = 2,
                    extraFrom = filmTitlePool, extraN = 2),
          StripSpec("TV Appearances", "tvapp", Set("alias"), take = 1,
                    extraFrom = epTitlePool ++ personNames, extraN = 4),
        ),
      ),
      classPrefix = "nm", seed = seed * 31 + 2)

    val titleUniverse  = new Random(seed + 1).shuffle(titleEntities).take(nTitlePages)
    val personUniverse = new Random(seed + 2).shuffle(personEntities).take(nPersonPages)

    val titleSite = SiteRenderer.render(titleSpec, titleUniverse,
      related = i => Vector(titleUniverse((i + 3) % titleUniverse.size),
                            titleUniverse((i + 11) % titleUniverse.size)))
    val personSite = SiteRenderer.render(personSpec, personUniverse)

    // Merge the two renders into one site; person page ids prefixed.
    val personPages  = personSite.pages.map(p => p.copy(pageId = s"nm-${p.pageId}"))
    val personTruth  = personSite.truth.map(t => t.copy(pageId = s"nm-${t.pageId}"))
    val personTopics = personSite.topics.map(t => t.copy(pageId = s"nm-${t.pageId}"))
    val site = RenderedSite("imdb-lite.com",
      titleSite.pages ++ personPages,
      titleSite.truth ++ personTruth,
      titleSite.topics ++ personTopics)

    // ---- biased seed KB --------------------------------------------------
    // Retention uses the SAME Featured key as the renderer's split lists, so
    // KB coverage of cast facts correlates with the featured presentation
    // within each view (footnote 10's bias).
    def keep(id: String, pred: String, v: String): Boolean = {
      val h = math.floorMod(MurmurHash3.stringHash(s"kb|$id|$pred|$v"), 100)
      pred match {
        case "actedIn" | "hasCastMember" => Featured(id, pred, v) && h < 25 // ≈ 16% overall
        case "directedBy" | "directorOf" => h < 38
        case "producerOf"                => h < 9
        case "writtenBy" | "writerOf"    => h < 30
        case "genre"                     => h < 58
        case _                           => h < 70
      }
    }
    val kbTriples = (titleEntities ++ personEntities).flatMap { e =>
      e.facts.collect {
        case (p, v) if keep(e.id, p, v) => Triple(e.id, e.name, e.etype, p, v)
      }
    }
    Imdb(personEntities, titleEntities, site, KnowledgeBase(kbTriples))
  }
}
